// Command app is the census fixture's one program: it reaches what the
// census must not flag.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Live(lib.Config{Shown: 1}), lib.Box[int]{}.Get())
}

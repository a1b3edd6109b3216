package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from this run")

// TestGoldenStatic: Tables 4-5 and Figure 5 print exactly what the
// golden file holds, serially and at the machine's width. Figure 5 fans
// out over endpoints and the tables over nodes, and neither may let
// scheduling reach the output. Regenerate with -update only when the
// analysis itself is meant to change.
func TestGoldenStatic(t *testing.T) {
	const path = "../../internal/experiments/testdata/static_400.golden"
	args := []string{"-table", "45", "-fig", "5", "-nodes", "400", "-sample", "40"}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		err := run(args, &out)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("GOMAXPROCS=%d: output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", procs, path, out.Bytes(), want)
		}
	}
}

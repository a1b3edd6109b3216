// Package lib holds one instance of each shape the census must tell
// apart.
package lib

// Dead is exported and nothing calls it: flagged.
func Dead() int { return 1 }

// ring, NewRing and spin refer only to each other: all three flagged.
type ring struct{ next *ring }

func NewRing() *ring {
	r := &ring{}
	r.next = r
	return r.spin()
}

func (r *ring) spin() *ring { return r.next }

// Config is a config struct. Only Shown is set outside this package;
// Hidden is set by lib_test.go alone: flagged. Defaulted is set only by
// Config's own fill method: flagged. The unexported hook is set by
// lib_test.go, which is enough for a hook; orphan is set by nothing:
// flagged.
type Config struct {
	Shown     int
	Hidden    int
	Defaulted int
	hook      int
	orphan    int
}

func (c *Config) fill() {
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
}

func Live(c Config) int {
	c.fill()
	return c.Shown + c.Hidden + c.Defaulted + c.hook + c.orphan + peel(inner{})
}

type inner struct{}

// Inner is reached only through the anonymous interface in peel.
func (inner) Inner() int { return 7 }

func peel(x any) int {
	if i, ok := x.(interface{ Inner() int }); ok {
		return i.Inner()
	}
	return 0
}

// Box is generic; Get is reached only through Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

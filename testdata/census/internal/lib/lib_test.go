package lib

import "testing"

// Tests are not roots: what they call or set stays flagged.
func TestDead(t *testing.T) {
	if Dead()+Live(Config{Hidden: 2, hook: 1}) == 0 {
		t.Fatal("zero")
	}
}

package pgraph

import (
	"math/rand"
	"slices"
	"testing"

	"centaur/internal/routing"
)

// byteSource hands out bounded choices from a byte string, zero once it
// runs dry.
type byteSource struct{ b []byte }

func (s *byteSource) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// runClassView drives a ClassView and, in lockstep, one View per member
// fed the class's paths minus those containing the member, through the
// operations ops encodes over propIDs: two bytes choose the members
// among the non-root nodes, then each byte starts one step. A step sets
// a random path (members anywhere in it), withdraws a destination,
// flushes, or clones the class view between rounds. Every flush compares
// each member's Delta with its View's Flush and each member's LinkInfos
// with its View's graph. It returns the number of flushes at which some
// member's view differed from the class view at a node passed by both
// kinds of path.
func runClassView(t *testing.T, ops []byte) (shared int) {
	t.Helper()
	src := &byteSource{b: ops}
	mask := src.next(256) | src.next(256)<<8
	var members []routing.NodeID
	for i, id := range propIDs[1:] {
		if mask>>i&1 == 1 {
			members = append(members, id)
		}
	}
	cv := NewClassView(testIx, propIDs[0], members)
	views := make([]*View, len(members))
	for i := range views {
		views[i] = NewView(testIx, propIDs[0])
	}
	set := func(dest routing.NodeID, p routing.Path) {
		cv.Set(dest, p)
		for i, m := range members {
			if p.Contains(m) {
				views[i].Set(dest, nil)
			} else {
				views[i].Set(dest, p)
			}
		}
	}
	step := 0
	for len(src.b) > 0 {
		step++
		switch op := src.next(10); {
		case op < 6:
			p := routing.Path{propIDs[0]}
			rest := slices.Clone(propIDs[1:])
			for k := 1 + src.next(5); k > 0; k-- {
				j := src.next(len(rest))
				p = append(p, rest[j])
				rest = slices.Delete(rest, j, j+1)
			}
			set(p.Dest(), p)
		case op < 8:
			set(propIDs[1+src.next(len(propIDs)-1)], nil)
		default:
			cv.Flush()
			mixed := false
			for i := range members {
				want := views[i].Flush()
				if got := cv.Delta(i); !equalDelta(got, want) {
					t.Fatalf("step %d, member %v: Delta\n got %+v\nwant %+v", step, members[i], got, want)
				}
				if got, want := cv.LinkInfos(i), views[i].Graph().LinkInfos(); !slices.EqualFunc(got, want, LinkInfo.Equal) {
					t.Fatalf("step %d, member %v: LinkInfos\n got %v\nwant %v", step, members[i], got, want)
				}
				for _, o := range cv.mem[i].over {
					if o.links != nil {
						mixed = true
					}
				}
			}
			if mixed {
				shared++
			}
			if op == 9 {
				cv = cv.Clone()
			}
		}
	}
	return shared
}

// TestClassViewMatchesViews runs random operation streams through
// runClassView and requires that the shared-node case came up.
func TestClassViewMatchesViews(t *testing.T) {
	shared := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400)
		rng.Read(ops)
		shared += runClassView(t, ops)
	}
	if shared == 0 {
		t.Fatal("no member's view ever differed from the class view at a shared node")
	}
}

// TestClassViewCloneIndependence checks that a clone and its original
// go their own ways.
func TestClassViewCloneIndependence(t *testing.T) {
	members := []routing.NodeID{propIDs[2], propIDs[5]}
	cv := NewClassView(testIx, propIDs[0], members)
	cv.Set(propIDs[3], routing.Path{propIDs[0], propIDs[2], propIDs[3]})
	cv.Set(propIDs[4], routing.Path{propIDs[0], propIDs[1], propIDs[4]})
	cv.Flush()
	before := cv.LinkInfos(0)
	cl := cv.Clone()
	cl.Set(propIDs[4], nil)
	cl.Set(propIDs[6], routing.Path{propIDs[0], propIDs[2], propIDs[6]})
	cl.Flush()
	if got := cv.LinkInfos(0); !slices.EqualFunc(got, before, LinkInfo.Equal) {
		t.Fatalf("the original changed with its clone:\n got %v\nwant %v", got, before)
	}
}

// FuzzClassView runs runClassView on fuzzed operation streams.
func FuzzClassView(f *testing.F) {
	f.Add([]byte{0xff, 0x03, 0, 1, 2, 3, 4, 5, 8, 1, 9, 9, 9, 9, 8, 6, 2, 8, 9})
	f.Add([]byte{0x12, 0x00, 5, 0, 1, 1, 1, 1, 3, 2, 2, 2, 2, 2, 8, 7, 0, 8, 0, 4, 3, 3, 3, 3, 8})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, ops []byte) { runClassView(t, ops) })
}

package pgraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"centaur/internal/routing"
)

func TestViewBasicLifecycle(t *testing.T) {
	v := NewView(testIx, 1)
	if v.Graph().Root() != 1 {
		t.Fatal("root wrong")
	}
	v.Set(3, routing.Path{1, 2, 3})
	d := v.Flush()
	if len(d.Adds) != 2 || len(d.Removes) != 0 {
		t.Fatalf("initial delta = %+v", d)
	}
	// Idempotent set: no delta.
	v.Set(3, routing.Path{1, 2, 3})
	if d := v.Flush(); !d.Empty() {
		t.Fatalf("idempotent set produced %+v", d)
	}
	// Reroute: the tail link survives, the head changes.
	v.Set(3, routing.Path{1, 4, 3})
	d = v.Flush()
	if len(d.Removes) != 2 || len(d.Adds) != 2 {
		t.Fatalf("reroute delta = %+v", d)
	}
	// Withdraw: everything goes.
	v.Set(3, nil)
	d = v.Flush()
	if len(d.Removes) != 2 || len(d.Adds) != 0 {
		t.Fatalf("withdraw delta = %+v", d)
	}
	if v.Graph().NumLinks() != 0 {
		t.Fatal("graph must be empty after withdrawal")
	}
	if v.Path(3) != nil {
		t.Fatal("path must be forgotten")
	}
}

// TestViewMatchesBuildProperty is the keystone: after any random
// sequence of Set operations, the incrementally maintained graph must
// be byte-identical (links, Permission Lists, destination marks) to
// Build over the same final path set, and replaying the flushed deltas
// into a receiver must reproduce the same announced view.
func TestViewMatchesBuildProperty(t *testing.T) {
	const root routing.NodeID = 1
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewView(testIx, root)
		recv := New(testIx, root)
		recv.MarkDest(root)
		current := make(map[routing.NodeID]routing.Path)
		for step := 0; step < 24; step++ {
			// Mutate a random destination: new random path, or withdraw.
			dest := routing.NodeID(2 + rng.Intn(10))
			var p routing.Path
			if rng.Intn(4) != 0 {
				p = randomPathTo(rng, root, dest)
			}
			v.Set(dest, p)
			if p == nil {
				delete(current, dest)
			} else {
				current[dest] = p
			}
			if rng.Intn(2) == 0 {
				continue // batch several sets into one flush sometimes
			}
			recv.Apply(v.Flush())
			if !equalView(v.Graph(), recv) {
				t.Logf("seed %d step %d: receiver diverged\nview: %v\nrecv: %v", seed, step, v.Graph(), recv)
				return false
			}
		}
		recv.Apply(v.Flush())
		want, err := Build(root, current)
		if err != nil {
			t.Logf("seed %d: Build: %v", seed, err)
			return false
		}
		if !v.Graph().Equal(want) {
			t.Logf("seed %d: view != Build\nview: %v\nbuild: %v", seed, v.Graph(), want)
			return false
		}
		if !equalView(v.Graph(), recv) {
			t.Logf("seed %d: receiver != view\nview: %v\nrecv: %v", seed, v.Graph(), recv)
			return false
		}
		// And the round trip still holds on the maintained graph.
		for d, p := range current {
			got, ok := v.Graph().DerivePath(d)
			if !ok || !got.Equal(p) {
				t.Logf("seed %d: DerivePath(%v) = %v, %v; want %v", seed, d, got, ok, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// equalView compares announced content (links, marks, Permission Lists)
// ignoring counters and the root's own mark, which announcements do not
// carry.
func equalView(a, b *Graph) bool {
	la, lb := a.LinkInfos(), b.LinkInfos()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if !la[i].Equal(lb[i]) {
			return false
		}
	}
	return true
}

// TestViewCountersMatchBuild: the §4.3.2 counters must track selected
// path membership exactly.
func TestViewCountersMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	v := NewView(testIx, 1)
	current := make(map[routing.NodeID]routing.Path)
	for step := 0; step < 40; step++ {
		dest := routing.NodeID(2 + rng.Intn(8))
		var p routing.Path
		if rng.Intn(4) != 0 {
			p = randomPathTo(rng, 1, dest)
		}
		v.Set(dest, p)
		if p == nil {
			delete(current, dest)
		} else {
			current[dest] = p
		}
	}
	want, err := Build(1, current)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range want.Links() {
		if got := v.Graph().Counter(l); got != want.Counter(l) {
			t.Fatalf("counter of %v = %d, Build says %d", l, got, want.Counter(l))
		}
	}
}

func TestViewPrimaryFlip(t *testing.T) {
	// Node 4 multi-homed via 2 (one path) and 3 (one path): tie broken
	// to lowest parent (2). Adding a second path through 3 flips the
	// primary to 3, which must re-announce both in-links.
	v := NewView(testIx, 1)
	v.Set(4, routing.Path{1, 2, 4})
	v.Set(5, routing.Path{1, 3, 4, 5})
	v.Flush()
	g := v.Graph()
	if g.Permission(routing.Link{From: 2, To: 4}) != nil {
		t.Fatal("2->4 must be primary (tie to lowest parent)")
	}
	if g.Permission(routing.Link{From: 3, To: 4}) == nil {
		t.Fatal("3->4 must carry the Permission List")
	}
	v.Set(6, routing.Path{1, 3, 4, 6})
	d := v.Flush()
	if g.Permission(routing.Link{From: 3, To: 4}) != nil {
		t.Fatal("3->4 must have become primary after carrying two paths")
	}
	if g.Permission(routing.Link{From: 2, To: 4}) == nil {
		t.Fatal("2->4 must now carry the Permission List")
	}
	// The flip must be announced: both in-links re-announced.
	reannounced := map[routing.Link]bool{}
	for _, li := range d.Adds {
		reannounced[li.Link] = true
	}
	if !reannounced[routing.Link{From: 2, To: 4}] || !reannounced[routing.Link{From: 3, To: 4}] {
		t.Fatalf("primary flip not announced: %+v", d)
	}
}

// TestViewCloneIndependence pins the contract Clone documents for the
// simulator's checkpoint forks: the clone shares no mutable state with
// the original, so flips replayed on one never show through the other.
func TestViewCloneIndependence(t *testing.T) {
	const root routing.NodeID = 1
	v := NewView(testIx, root)
	v.Set(3, routing.Path{1, 2, 3})
	v.Set(5, routing.Path{1, 4, 5})
	v.Flush()

	cp := v.Clone()
	if !cp.Graph().Equal(v.Graph()) {
		t.Fatal("clone graph differs before any mutation")
	}
	if cp.ApproxMemBytes() <= 0 {
		t.Fatal("clone must report a positive memory estimate")
	}
	frozen := v.Graph().Clone()

	// Mutate the original: reroute one destination, withdraw another.
	v.Set(3, routing.Path{1, 4, 3})
	v.Set(5, nil)
	v.Flush()
	if !cp.Graph().Equal(frozen) {
		t.Fatal("mutating the original leaked into the clone's graph")
	}
	if got := cp.Path(5); len(got) != 3 {
		t.Fatalf("clone path to 5 = %v, want the pre-mutation path", got)
	}

	// Mutate the clone: the original must keep its rerouted state, and
	// the clone's own delta must describe only its local edit.
	beforeOrig := v.Graph().Clone()
	cp.Set(3, nil)
	if d := cp.Flush(); d.Empty() {
		t.Fatal("clone withdraw produced no delta")
	}
	if !v.Graph().Equal(beforeOrig) {
		t.Fatal("mutating the clone leaked into the original's graph")
	}
	if got := v.Path(3); len(got) != 3 {
		t.Fatalf("original path to 3 = %v, want the rerouted path", got)
	}

	// A clone taken mid-round carries the pending snapshots and their
	// pairs: it flushes the same Δ as the original, also after the
	// original has gone on to buffer other pairs in a round of its own.
	w := NewView(testIx, root)
	w.Set(4, routing.Path{1, 2, 4})
	w.Set(5, routing.Path{1, 3, 4, 5}) // 3->4 lists <5,5>
	w.Set(14, routing.Path{1, 12, 14})
	w.Set(15, routing.Path{1, 13, 14, 15}) // 13->14 lists <15,15>
	w.Flush()
	w.Set(5, nil)
	w.Set(5, routing.Path{1, 3, 4, 5}) // 3->4 leaves and comes back with the same list
	w.Set(7, routing.Path{1, 2, 7})
	if len(w.pairs) == 0 {
		t.Fatal("the round buffered no pairs; the clone would copy nothing")
	}
	mid := w.Clone()
	want := w.Flush()
	if len(want.Adds) != 1 || len(want.Removes) != 0 {
		t.Fatalf("the mid-round edits flushed %+v, want the one new link 2->7", want)
	}
	w.Set(15, nil) // buffers 13->14's list where 3->4's was
	if got := mid.Flush(); !equalDelta(got, want) {
		t.Fatalf("mid-round clone flushed\n%+v\nthe original\n%+v", got, want)
	}
}

// TestFlushReTouchedLink covers a link with a Permission List that loses
// its last path and regains one within a round: Flush must compare what
// the link announces now with its first snapshot's pairs, read back from
// the round's pairs buffer, also when earlier snapshots of the round
// already filled part of that buffer.
func TestFlushReTouchedLink(t *testing.T) {
	perm := link(3, 4) // 2->4 is node 4's primary (the tie goes to the lower parent)
	for _, tc := range []struct {
		name    string
		regain  routing.Path // the path that brings perm back
		want    []PermEntry  // perm's pairs in the Δ; nil when perm must not be sent
		prefill bool         // earlier snapshots put perm's pairs at a non-zero offset
	}{
		{"different pairs", routing.Path{1, 3, 4, 6}, []PermEntry{{Dest: 6, Next: 6}}, false},
		{"identical pairs", routing.Path{1, 3, 4, 5}, nil, false},
		{"different pairs at an offset", routing.Path{1, 3, 4, 6}, []PermEntry{{Dest: 6, Next: 6}}, true},
		{"identical pairs at an offset", routing.Path{1, 3, 4, 5}, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, ref := NewView(testIx, 1), newRefView(1)
			set := func(dest routing.NodeID, p routing.Path) {
				v.Set(dest, p)
				ref.Set(dest, p)
			}
			set(4, routing.Path{1, 2, 4})
			set(5, routing.Path{1, 3, 4, 5})
			set(14, routing.Path{1, 12, 14})
			set(15, routing.Path{1, 13, 14, 15})
			v.Flush()
			ref.Flush()
			if pl := v.Graph().Permission(perm); pl == nil || pl.NumPairs() != 1 {
				t.Fatalf("%v must carry one pair before the round, has %v", perm, pl)
			}
			if tc.prefill {
				// Flips node 14's primary: snapshots 13->14 with its pair.
				set(17, routing.Path{1, 13, 14, 17})
			}
			set(5, nil) // perm loses its last path and leaves the graph
			if v.Graph().HasLink(perm) {
				t.Fatalf("%v must be gone with its last path", perm)
			}
			set(tc.regain.Dest(), tc.regain)
			for _, s := range v.round {
				if s.link == perm && s.present && (s.off > 0) != tc.prefill {
					t.Fatalf("snapshot of %v at offset %d, not the case under test", perm, s.off)
				}
			}
			d, want := v.Flush(), ref.Flush()
			if !equalDelta(d, want) {
				t.Fatalf("Flush\n got %+v\nwant %+v", d, want)
			}
			if tc.want == nil && !tc.prefill && !d.Empty() {
				t.Fatalf("a round that put everything back flushed %+v", d)
			}
			var sent *LinkInfo
			for i := range d.Adds {
				if d.Adds[i].Link == perm {
					sent = &d.Adds[i]
				}
			}
			switch {
			case tc.want == nil && sent != nil:
				t.Fatalf("%v re-announced with unchanged pairs: %v", perm, *sent)
			case tc.want != nil && (sent == nil || !slices.Equal(sent.Perm, tc.want)):
				t.Fatalf("%v announced as %v, want pairs %v", perm, sent, tc.want)
			}
			if len(v.round) != 0 || len(v.pairs) != 0 {
				t.Fatalf("Flush left %d snapshots and %d pairs behind", len(v.round), len(v.pairs))
			}
		})
	}
}

// TestSnapshotIsSmall pins the round snapshot's layout: 24 bytes with
// no pointer, so Flush's sort moves small values without write barriers.
func TestSnapshotIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(snapshot{}); n != 24 {
		t.Fatalf("snapshot is %d bytes, want 24", n)
	}
}

package pgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"centaur/internal/routing"
)

// pathMap is a convenience constructor for selected path sets.
func pathMap(paths ...routing.Path) map[routing.NodeID]routing.Path {
	out := make(map[routing.NodeID]routing.Path, len(paths))
	for _, p := range paths {
		out[p.Dest()] = p
	}
	return out
}

func TestBuildRejectsInvalidPaths(t *testing.T) {
	tests := []struct {
		name  string
		root  routing.NodeID
		paths map[routing.NodeID]routing.Path
	}{
		{"empty path", 1, map[routing.NodeID]routing.Path{2: {}}},
		{"wrong root", 1, pathMap(routing.Path{3, 2})},
		{"wrong dest", 1, map[routing.NodeID]routing.Path{9: {1, 2}}},
		{"loop", 1, pathMap(routing.Path{1, 2, 1, 3})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.root, tt.paths); err == nil {
				t.Fatalf("Build(%v, %v) should fail", tt.root, tt.paths)
			}
		})
	}
}

func TestBuildSimpleTree(t *testing.T) {
	// No path re-merging: a pure tree needs no Permission Lists.
	g, err := Build(1, pathMap(
		routing.Path{1, 2},
		routing.Path{1, 2, 3},
		routing.Path{1, 4},
	))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 3 {
		t.Fatalf("NumLinks = %d, want 3", g.NumLinks())
	}
	if g.NumPermissionLists() != 0 {
		t.Fatalf("tree P-graph should have no Permission Lists, got %d", g.NumPermissionLists())
	}
	if got := g.Counter(routing.Link{From: 1, To: 2}); got != 2 {
		t.Fatalf("link 1->2 counter = %d, want 2 (used by two paths)", got)
	}
	for _, want := range []routing.Path{{1, 2}, {1, 2, 3}, {1, 4}} {
		got, ok := g.DerivePath(want.Dest())
		if !ok || !got.Equal(want) {
			t.Fatalf("DerivePath(%v) = %v, %v; want %v", want.Dest(), got, ok, want)
		}
	}
}

// TestBuildFigure4 reproduces the paper's Figure 4 scenario: C prefers
// <C,A,B,D> to reach D but uses <C,D,D'> to reach D', making D
// multi-homed in C's local P-graph. The Permission List on C->D must
// permit exactly the D' path, so the policy-violating path <C,D> is not
// derivable (§3.2.4, §4.1).
func TestBuildFigure4(t *testing.T) {
	const (
		A, B, C, D, DPrime routing.NodeID = 1, 2, 3, 4, 5
	)
	g, err := Build(C, pathMap(
		routing.Path{C, A},
		routing.Path{C, A, B},
		routing.Path{C, A, B, D},
		routing.Path{C, D, DPrime},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !g.MultiHomed(D) {
		t.Fatal("D must be multi-homed (parents B and C)")
	}
	// The Permission List on C->D is the paper's example: destination D'
	// with next hop D'.
	pl := g.Permission(routing.Link{From: C, To: D})
	if pl == nil {
		t.Fatal("link C->D must carry a Permission List")
	}
	if !pl.Permit(DPrime, DPrime) {
		t.Fatalf("Permission List on C->D = %v must permit (D', D')", pl)
	}
	if pl.Permit(D, routing.None) {
		t.Fatal("Permission List on C->D must NOT permit the direct path to D")
	}
	// Round trip: both selected paths derive back exactly.
	for _, want := range []routing.Path{{C, A, B, D}, {C, D, DPrime}} {
		got, ok := g.DerivePath(want.Dest())
		if !ok || !got.Equal(want) {
			t.Fatalf("DerivePath(%v) = %v, %v; want %v", want.Dest(), got, ok, want)
		}
	}
	// The upstream node A, learning this P-graph, must not be able to
	// derive the policy-violating path <C,D>: D's only permitted parent
	// chain for destination D goes through B.
	if p, ok := g.DerivePath(D); !ok || p.Contains(C) && len(p) == 2 {
		t.Fatalf("DerivePath(D) = %v, %v; the two-hop <C,D> would violate policy", p, ok)
	}
}

func TestDerivePathRootAndMissing(t *testing.T) {
	g := New(testIx, 1)
	if p, ok := g.DerivePath(1); !ok || !p.Equal(routing.Path{1}) {
		t.Fatalf("DerivePath(root) = %v, %v; want <N1>, true", p, ok)
	}
	if _, ok := g.DerivePath(9); ok {
		t.Fatal("DerivePath of an absent node must fail")
	}
}

func TestDerivePathBrokenChain(t *testing.T) {
	// 2->3 exists but nothing connects the root to 2: no path.
	g := New(testIx, 1)
	g.AddLink(link(2, 3))
	if _, ok := g.DerivePath(3); ok {
		t.Fatal("derivation must fail when the parent chain does not reach the root")
	}
}

func TestDerivePathHonorsPermissionOnSingleParent(t *testing.T) {
	// After import filtering a node can be single-homed yet keep a
	// Permission List; the list must still gate derivation (otherwise
	// the receiver could derive paths the sender does not use).
	g := New(testIx, 1)
	g.AddLink(link(1, 2))
	g.AddLink(link(2, 3))
	pl := &PermissionList{}
	pl.Add(9, routing.None) // permits only some other destination
	g.SetPermission(link(2, 3), pl)
	if _, ok := g.DerivePath(3); ok {
		t.Fatal("a Permission List that does not cover the destination must block derivation")
	}
	pl.Add(3, routing.None)
	g.SetPermission(link(2, 3), pl)
	if p, ok := g.DerivePath(3); !ok || !p.Equal(routing.Path{1, 2, 3}) {
		t.Fatalf("DerivePath(3) = %v, %v after permitting", p, ok)
	}
}

func TestDerivePathCycleGuard(t *testing.T) {
	// A malformed (adversarial) graph with a parent cycle must fail
	// cleanly instead of hanging.
	g := New(testIx, 1)
	g.AddLink(link(2, 3))
	g.AddLink(link(3, 2))
	if _, ok := g.DerivePath(3); ok {
		t.Fatal("cyclic parent chain must fail derivation")
	}
}

// TestRoundTripCrossingPaths covers paths that re-merge in both
// directions, the scenario that forces Permission Lists on several links
// at once.
func TestRoundTripCrossingPaths(t *testing.T) {
	paths := pathMap(
		routing.Path{1, 2, 3, 4},
		routing.Path{1, 3, 2, 5},
		routing.Path{1, 2},
		routing.Path{1, 3},
	)
	g, err := Build(1, paths)
	if err != nil {
		t.Fatal(err)
	}
	for d, want := range paths {
		got, ok := g.DerivePath(d)
		if !ok || !got.Equal(want) {
			t.Fatalf("DerivePath(%v) = %v, %v; want %v", d, got, ok, want)
		}
	}
}

// TestRoundTripProperty is the paper's core invariant, checked with
// testing/quick: for any valid single-path set, BuildGraph followed by
// DerivePath reconstructs exactly the selected paths (Observation 1 —
// upstream nodes can recover precisely the downstream paths in use).
func TestRoundTripProperty(t *testing.T) {
	const root routing.NodeID = 1
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		paths := randomPathSet(rng, root)
		g, err := Build(root, paths)
		if err != nil {
			t.Logf("seed %d: Build failed: %v", seed, err)
			return false
		}
		for d, want := range paths {
			got, ok := g.DerivePath(d)
			if !ok || !got.Equal(want) {
				t.Logf("seed %d: DerivePath(%v) = %v, %v; want %v", seed, d, got, ok, want)
				return false
			}
		}
		// And the structural invariant behind Table 4: every multi-homed
		// node has exactly one unrestricted (primary) in-link; all other
		// in-links carry Permission Lists (Figure 4(c) semantics).
		for _, n := range g.Nodes() {
			if !g.MultiHomed(n) {
				continue
			}
			unrestricted := 0
			for _, parent := range g.Parents(n) {
				if g.Permission(routing.Link{From: parent, To: n}) == nil {
					unrestricted++
				}
			}
			if unrestricted != 1 {
				t.Logf("seed %d: multi-homed %v has %d unrestricted in-links, want exactly 1", seed, n, unrestricted)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomPathSet builds a random valid single-path set: up to 20
// destinations over a 12-node universe, each with a random loop-free
// path from the root.
func randomPathSet(rng *rand.Rand, root routing.NodeID) map[routing.NodeID]routing.Path {
	const universe = 12
	nDests := 1 + rng.Intn(universe-2)
	paths := make(map[routing.NodeID]routing.Path, nDests)
	for i := 0; i < nDests; i++ {
		// Random destination (not the root).
		dest := routing.NodeID(2 + rng.Intn(universe-1))
		if _, dup := paths[dest]; dup {
			continue
		}
		// Random loop-free path root -> ... -> dest.
		perm := rng.Perm(universe)
		p := routing.Path{root}
		for _, x := range perm {
			n := routing.NodeID(x + 1)
			if n == root || n == dest {
				continue
			}
			if rng.Intn(3) == 0 { // keep paths short on average
				p = append(p, n)
			}
			if len(p) >= 1+rng.Intn(5) {
				break
			}
		}
		p = append(p, dest)
		paths[dest] = p
	}
	return paths
}

func TestDiffAndApply(t *testing.T) {
	oldPaths := pathMap(
		routing.Path{1, 2, 3},
		routing.Path{1, 2, 4},
	)
	newPaths := pathMap(
		routing.Path{1, 2, 3},
		routing.Path{1, 5, 4}, // re-routed
		routing.Path{1, 5},    // new destination
	)
	oldG, err := Build(1, oldPaths)
	if err != nil {
		t.Fatal(err)
	}
	newG, err := Build(1, newPaths)
	if err != nil {
		t.Fatal(err)
	}
	delta := Diff(oldG.LinkInfos(), newG.LinkInfos())
	if delta.Empty() {
		t.Fatal("delta between different views must not be empty")
	}
	// A receiver holding the old view and applying the delta must end up
	// with exactly the new view.
	recv := New(testIx, 1)
	// A link announcement never carries the root's own destination mark;
	// receivers mark it at session creation (the neighbor is itself a
	// destination), so the test does the same.
	recv.MarkDest(1)
	recv.Apply(Delta{Adds: oldG.LinkInfos()})
	recv.Apply(delta)
	if !recv.Equal(newG) {
		t.Fatalf("apply(diff) mismatch:\nold %v\nnew %v\ngot %v", oldG, newG, recv)
	}
}

func TestDiffDetectsAttributeChange(t *testing.T) {
	// Same link, different Permission List: must re-announce.
	a := LinkInfo{Link: link(1, 2), ToIsDest: true}
	b := LinkInfo{Link: link(1, 2), ToIsDest: true, Perm: []PermEntry{{Dest: 3, Next: 4}}}
	d := Diff([]LinkInfo{a}, []LinkInfo{b})
	if len(d.Adds) != 1 || len(d.Removes) != 0 {
		t.Fatalf("Diff = %+v, want exactly one re-announcement", d)
	}
	// Identical views: empty delta.
	if d := Diff([]LinkInfo{b}, []LinkInfo{b.Clone()}); !d.Empty() {
		t.Fatalf("Diff of identical views = %+v, want empty", d)
	}
}

func TestDeltaSize(t *testing.T) {
	d := Delta{
		Adds:    []LinkInfo{{Link: link(1, 2)}, {Link: link(2, 3)}},
		Removes: []routing.Link{link(4, 5)},
	}
	if d.Size() != 3 {
		t.Fatalf("Size = %d, want 3", d.Size())
	}
	if d.Empty() {
		t.Fatal("non-empty delta must not report Empty")
	}
}

func TestDeriveAll(t *testing.T) {
	paths := pathMap(
		routing.Path{1, 2},
		routing.Path{1, 2, 3},
	)
	g, err := Build(1, paths)
	if err != nil {
		t.Fatal(err)
	}
	all := g.DeriveAllInto(nil)
	// Root itself is marked as destination by Build.
	if len(all) != 3 {
		t.Fatalf("DeriveAll returned %d paths, want 3 (including root)", len(all))
	}
	for d, want := range paths {
		if !all[d].Equal(want) {
			t.Fatalf("DeriveAll[%v] = %v, want %v", d, all[d], want)
		}
	}
}

func TestDeriveAllInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Reuse one buffer across several random graphs: every refill must
	// match a derivation into a fresh map exactly, with no stale keys surviving.
	buf := map[routing.NodeID]routing.Path{99: {99}} // junk that must be cleared
	for trial := 0; trial < 20; trial++ {
		paths := randomPathSet(rng, 1)
		g, err := Build(1, paths)
		if err != nil {
			t.Fatal(err)
		}
		want := g.DeriveAllInto(nil)
		buf = g.DeriveAllInto(buf)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: refilled map has %d paths, fresh map has %d", trial, len(buf), len(want))
		}
		for d, p := range want {
			if !buf[d].Equal(p) {
				t.Fatalf("trial %d: DeriveAllInto[%v] = %v, want %v", trial, d, buf[d], p)
			}
		}
	}
}

package pgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"centaur/internal/routing"
)

// The model-based property tests drive the slot-indexed Graph and View
// and the retired map-backed implementation (model_test.go) through the
// same random operation sequences and require identical observable
// state after every step.

// propIDs is the node universe: small IDs, gaps, and IDs at the top of
// the uint32 range (storage must not depend on IDs being dense).
var propIDs = []routing.NodeID{
	1, 2, 3, 7, 8, 100, 65536, 1 << 31,
	math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32,
}

// randPath returns a random loop-free path from propIDs[0] of up to
// maxHops links. Over a universe this small the paths of different
// destinations keep crossing, so nodes become multi-homed, primaries
// flip as paths move, and both directions of a link (the sibling case)
// show up in one graph.
func randPath(rng *rand.Rand, maxHops int) routing.Path {
	p := routing.Path{propIDs[0]}
	for _, i := range rng.Perm(len(propIDs) - 1)[:1+rng.Intn(maxHops)] {
		p = append(p, propIDs[i+1])
	}
	return p
}

func equalDelta(a, b Delta) bool {
	return slices.Equal(a.Removes, b.Removes) && slices.EqualFunc(a.Adds, b.Adds, LinkInfo.Equal)
}

// checkSameGraph compares everything a protocol can observe of g with
// the model: announcements, destination marks, the subtree sets, and
// every derivation under a random failed-link mask.
func checkSameGraph(t *testing.T, rng *rand.Rand, step int, g *Graph, ref *refGraph) {
	t.Helper()
	checkPositions(t, g)
	infos := g.LinkInfos()
	if want := ref.LinkInfos(); !slices.EqualFunc(infos, want, LinkInfo.Equal) {
		t.Fatalf("step %d: LinkInfos\n got %v\nwant %v", step, infos, want)
	}
	if got, want := g.Dests(), ref.Dests(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Dests = %v, want %v", step, got, want)
	}
	if g.NumLinks() != ref.nLinks || g.NumPermissionLists() != len(ref.perms) {
		t.Fatalf("step %d: %d links / %d lists, want %d / %d",
			step, g.NumLinks(), g.NumPermissionLists(), ref.nLinks, len(ref.perms))
	}
	masked := map[routing.Link]bool{}
	for _, li := range infos {
		if rng.Intn(6) == 0 {
			masked[li.Link] = true
		}
		if got, want := g.Counter(li.Link), ref.counters[li.Link]; got != want {
			t.Fatalf("step %d: Counter(%v) = %d, want %d", step, li.Link, got, want)
		}
	}
	skip := func(l routing.Link) bool { return masked[l] }
	for _, n := range append([]routing.NodeID{99}, propIDs...) {
		if got, want := g.DestsBelow(n), ref.DestsBelow(n); !slices.Equal(got, want) {
			t.Fatalf("step %d: DestsBelow(%v) = %v, want %v", step, n, got, want)
		}
		for _, sk := range []func(routing.Link) bool{nil, skip} {
			got, ok, reason := g.derivePath(n, sk)
			want, wantOK, wantReason, _ := ref.derivePath(n, sk, nil)
			if ok != wantOK || reason != wantReason || !got.Equal(want) {
				t.Fatalf("step %d: derive(%v, masked=%v) = %v %v %v, want %v %v %v",
					step, n, sk != nil, got, ok, reason, want, wantOK, wantReason)
			}
		}
	}
}

// TestViewMatchesModel drives View.Set/Flush against the model and, on
// the receiving side, Graph.Apply of the flushed deltas against the
// model's Apply.
func TestViewMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		view, refV := NewView(testIx, propIDs[0]), newRefView(propIDs[0])
		recv, refRecv := New(testIx, propIDs[0]), newRefGraph(propIDs[0])
		for step := 0; step < 400; step++ {
			for k := rng.Intn(4); k >= 0; k-- {
				var p routing.Path
				dest := propIDs[1+rng.Intn(len(propIDs)-1)]
				if rng.Intn(4) > 0 {
					p = randPath(rng, 5)
					dest = p.Dest()
				}
				view.Set(dest, p)
				refV.Set(dest, p)
			}
			if rng.Intn(3) == 0 {
				continue // let the round accumulate more Sets
			}
			d, want := view.Flush(), refV.Flush()
			if !equalDelta(d, want) {
				t.Fatalf("seed %d step %d: Flush\n got %+v\nwant %+v", seed, step, d, want)
			}
			checkSameGraph(t, rng, step, view.Graph(), refV.Graph())
			for _, dest := range propIDs {
				if !view.Path(dest).Equal(refV.paths[dest]) {
					t.Fatalf("seed %d step %d: Path(%v) = %v, want %v", seed, step, dest, view.Path(dest), refV.paths[dest])
				}
			}
			// Now and then the receiver also sees a withdrawal or a mark
			// change the sender never made (a third party's delta).
			if len(d.Adds) > 0 && rng.Intn(5) == 0 {
				li := d.Adds[rng.Intn(len(d.Adds))].Clone()
				li.ToIsDest = !li.ToIsDest
				d.Adds = append(d.Adds, li)
			}
			if links := recv.Links(); len(links) > 0 && rng.Intn(5) == 0 {
				d.Removes = append(d.Removes, links[rng.Intn(len(links))])
			}
			recv.Apply(d)
			refRecv.Apply(d)
			checkSameGraph(t, rng, step, recv, refRecv)
		}
	}
}

// TestBuildMatchesViewModel checks the bulk constructor against the
// model's incremental view on the same path set.
func TestBuildMatchesViewModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		paths := map[routing.NodeID]routing.Path{}
		refV := newRefView(propIDs[0])
		for k := 0; k < 12; k++ {
			p := randPath(rng, 5)
			paths[p.Dest()] = p
		}
		for dest, p := range paths {
			refV.Set(dest, p)
		}
		refV.Flush()
		g, err := Build(propIDs[0], paths)
		if err != nil {
			t.Fatal(err)
		}
		checkSameGraph(t, rng, int(seed), g, refV.Graph())
	}
}

// TestViewOfMatchesModel checks the bulk-built view against the model's
// incremental one on the same path set, then drives both through the
// same random Set/Flush rounds: a view ViewOf built must carry on
// exactly as one built by Set.
func TestViewOfMatchesModel(t *testing.T) {
	multiHomed := 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byDest := map[routing.NodeID]routing.Path{}
		for k := 0; k < 12; k++ {
			p := randPath(rng, 5)
			byDest[p.Dest()] = p
		}
		var list []routing.Path
		refV := newRefView(propIDs[0])
		for _, dest := range propIDs[1:] {
			if p := byDest[dest]; p != nil {
				list = append(list, p)
				refV.Set(dest, p)
			}
		}
		// ViewOf takes the paths in another order than the model's Sets.
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		refV.Flush()
		view, err := ViewOf(testIx, propIDs[0], list)
		if err != nil {
			t.Fatalf("seed %d: ViewOf: %v", seed, err)
		}
		for _, n := range propIDs {
			if view.Graph().MultiHomed(n) {
				multiHomed++
			}
		}
		checkSameGraph(t, rng, 0, view.Graph(), refV.Graph())
		for step := 0; step < 100; step++ {
			for _, dest := range propIDs {
				if !view.Path(dest).Equal(refV.paths[dest]) {
					t.Fatalf("seed %d step %d: Path(%v) = %v, want %v", seed, step, dest, view.Path(dest), refV.paths[dest])
				}
			}
			for k := rng.Intn(4); k >= 0; k-- {
				var p routing.Path
				dest := propIDs[1+rng.Intn(len(propIDs)-1)]
				if rng.Intn(4) > 0 {
					p = randPath(rng, 5)
					dest = p.Dest()
				}
				view.Set(dest, p)
				refV.Set(dest, p)
			}
			checkSameRound(t, step, view, refV)
			if d, want := view.Flush(), refV.Flush(); !equalDelta(d, want) {
				t.Fatalf("seed %d step %d: Flush\n got %+v\nwant %+v", seed, step, d, want)
			}
			checkSameGraph(t, rng, step, view.Graph(), refV.Graph())
		}
	}
	if multiHomed == 0 {
		t.Fatal("no path set made a node multi-homed")
	}

	// What BuildInto rejects, ViewOf returns as an error.
	for name, paths := range map[string][]routing.Path{
		"two paths for one destination": {{1, 2, 3}, {1, 4, 3}},
		"a node outside the index":      {{1, 2, 5000}},
		"a root outside the index":      {{5000, 2}},
	} {
		root := paths[0][0]
		if v, err := ViewOf(testIx, root, paths); err == nil || v != nil {
			t.Errorf("%s: ViewOf = %v, %v; want an error", name, v, err)
		}
	}
}

// checkSameRound compares the links the view's pending round has
// snapshotted with the model's. Both re-establish a node's layout from
// their cached state only when it is stale, so a view whose cached
// layouts disagree with its graph snapshots links the model does not.
func checkSameRound(t *testing.T, step int, v *View, ref *refView) {
	t.Helper()
	got := map[routing.Link]bool{}
	for _, s := range v.round {
		got[s.link] = true
	}
	for l := range ref.round {
		if !got[l] {
			t.Fatalf("step %d: the round misses %v", step, l)
		}
	}
	if len(got) != len(ref.round) {
		t.Fatalf("step %d: the round touched %d links, the model %d", step, len(got), len(ref.round))
	}
}

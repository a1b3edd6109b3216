package adversary

import (
	"reflect"
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// TestPickDeterministic pins the PR 2 bug class at the unit level:
// attacker selection is a pure function of (g, kind, count, seed), the
// attacker set is sorted, and eligibility rules hold.
func TestPickDeterministic(t *testing.T) {
	g, err := topogen.BRITE(120, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Leak, Hijack, Intercept} {
		a := Pick(g, kind, 3, 500)
		b := Pick(g, kind, 3, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed produced different specs:\n%+v\n%+v", kind, a, b)
		}
		c := Pick(g, kind, 3, 501)
		if reflect.DeepEqual(a.Attackers, c.Attackers) {
			t.Errorf("%v: seeds 500 and 501 drew identical attackers %v", kind, a.Attackers)
		}
		if len(a.Attackers) != 3 {
			t.Fatalf("%v: want 3 attackers, got %v", kind, a.Attackers)
		}
		for i := 1; i < len(a.Attackers); i++ {
			if a.Attackers[i-1] >= a.Attackers[i] {
				t.Fatalf("%v: attackers not sorted: %v", kind, a.Attackers)
			}
		}
		for _, atk := range a.Attackers {
			if kind == Leak && upstreams(g, atk) < 2 {
				t.Errorf("leak attacker %v has %d provider/peer neighbors, needs 2",
					atk, upstreams(g, atk))
			}
			if kind == Hijack || kind == Intercept {
				v := a.Victims[atk]
				if v == routing.None || v == atk {
					t.Fatalf("%v: attacker %v got victim %v", kind, atk, v)
				}
				if _, adjacent := g.Rel(atk, v); adjacent {
					t.Errorf("%v: victim %v is adjacent to attacker %v", kind, v, atk)
				}
			}
		}
	}
}

// TestRelabelNoiseDeterministic pins the seeded relabeler: same
// (g, frac, seed) yields an identical graph and flip list, the input
// graph is never mutated, only c2p/p2p labels flip, and no flip closes
// a customer→provider cycle.
func TestRelabelNoiseDeterministic(t *testing.T) {
	g, err := topogen.BRITE(150, 2, 29)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Edges()
	g1, f1 := RelabelNoise(g, 0.1, 900)
	g2, f2 := RelabelNoise(g, 0.1, 900)
	if !reflect.DeepEqual(g1.Edges(), g2.Edges()) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("same seed produced different relabelings")
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Fatal("RelabelNoise mutated its input graph")
	}
	if len(f1) == 0 {
		t.Fatal("frac 0.1 flipped no edges")
	}
	_, f3 := RelabelNoise(g, 0.1, 901)
	if reflect.DeepEqual(f1, f3) {
		t.Error("seeds 900 and 901 flipped identical edge sets")
	}

	for _, e := range f1 {
		if e.Rel == topology.RelSibling {
			t.Fatalf("sibling edge %v-%v was flipped", e.A, e.B)
		}
		orig, ok := g.Rel(e.A, e.B)
		if !ok || orig != e.Rel {
			t.Fatalf("flip report %+v does not match ground truth label %v", e, orig)
		}
		now, ok := g1.Rel(e.A, e.B)
		if !ok {
			t.Fatalf("flipped edge %v-%v missing from output graph", e.A, e.B)
		}
		switch e.Rel {
		case topology.RelCustomer, topology.RelProvider:
			if now != topology.RelPeer {
				t.Fatalf("c2p edge %v-%v flipped to %v, want peer", e.A, e.B, now)
			}
		case topology.RelPeer:
			if now != topology.RelCustomer && now != topology.RelProvider {
				t.Fatalf("p2p edge %v-%v flipped to %v, want c2p", e.A, e.B, now)
			}
		}
	}
	if cyc := findProviderCycle(g1); cyc != routing.None {
		t.Fatalf("relabeled graph has a customer→provider cycle through %v", cyc)
	}

	// frac 0 is the identity, shared with the noise==0 sweep rows.
	g0, f0 := RelabelNoise(g, 0, 900)
	if len(f0) != 0 || !reflect.DeepEqual(g0.Edges(), g.Edges()) {
		t.Fatal("frac 0 is not the identity relabeling")
	}
}

// findProviderCycle returns a node on a customer→provider cycle, or
// routing.None. Colors: 0 unvisited, 1 on stack, 2 done.
func findProviderCycle(g *topology.Graph) routing.NodeID {
	color := make(map[routing.NodeID]int)
	var visit func(n routing.NodeID) bool
	visit = func(n routing.NodeID) bool {
		color[n] = 1
		for _, nb := range g.Neighbors(n) {
			if nb.Rel != topology.RelProvider {
				continue
			}
			if color[nb.ID] == 1 {
				return true
			}
			if color[nb.ID] == 0 && visit(nb.ID) {
				return true
			}
		}
		color[n] = 2
		return false
	}
	for _, n := range g.Nodes() {
		if color[n] == 0 && visit(n) {
			return n
		}
	}
	return routing.None
}

// TestModelNilSafety: every hook must no-op on a nil model — the
// protocols call them unconditionally on honest runs.
func TestModelNilSafety(t *testing.T) {
	var m *Model
	if m.IsAttacker(1) || m.Leaks(1) || m.Drops(1, 2) {
		t.Fatal("nil model reported activity")
	}
	if _, ok := m.HijackVictim(1); ok {
		t.Fatal("nil model returned a hijack victim")
	}
	if m.VictimOf(1) != routing.None || m.Kind() != None {
		t.Fatal("nil model returned victims or a kind")
	}
	m.NoteInjected(3, 2) // must not panic
	if m.InjectedUnits() != 0 || len(m.InjectedDests()) != 0 {
		t.Fatal("nil model accumulated state")
	}
}

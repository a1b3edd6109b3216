package bgp

import (
	"slices"
	"testing"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/policy"
	"centaur/internal/prototest"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// sameUpdate compares two sent updates field by field.
func sameUpdate(a, b sim.Message) bool {
	x, y := a.(Update), b.(Update)
	return x.Dest == y.Dest && (x.Path == nil) == (y.Path == nil) && x.Path.Equal(y.Path) &&
		slices.Equal(x.FailedLinks, y.FailedLinks)
}

// TestNodeMatchesModel runs flap sequences, node crashes and restarts
// through networks of lockstep pairs (the real Node and the map-backed
// reference model fed the same events; every Send, After and
// RouteChangedVia compared per event): plain BGP, MRAI, RCN with
// restores inside and outside the mask TTL, a leaking and a hijacking
// attacker, and a topology with a sparse node ID. The RCN cases fail
// one link at a time and crash no node: under overlapping failures
// BGP-RCN, model and Node alike, can fail to quiesce (ROADMAP, open
// items), and a run that never ends compares nothing new.
func TestNodeMatchesModel(t *testing.T) {
	brite, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(60, 9) // has sibling adjacencies
	if err != nil {
		t.Fatal(err)
	}
	hashed := policy.GaoRexford{TieBreak: policy.TieHashed}
	rcn := Config{Policy: hashed, RCN: true, rcnMaskTTL: 200 * time.Millisecond}
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
		adv  adversary.Kind
	}{
		{"brite/plain", brite, Config{Policy: hashed}, adversary.None},
		{"caida/plain", caida, Config{}, adversary.None},
		{"brite/mrai", brite, Config{Policy: hashed, MRAI: 20 * time.Millisecond}, adversary.None},
		{"brite/rcn", brite, rcn, adversary.None},
		{"caida/rcn", caida, rcn, adversary.None},
		{"caida/rcn+mrai", caida, Config{RCN: true, MRAI: 5 * time.Millisecond}, adversary.None},
		{"caida/leak", caida, Config{Policy: hashed}, adversary.Leak},
		{"caida/hijack", caida, Config{Policy: hashed}, adversary.Hijack},
		{"sparse/plain", prototest.SparseGraph(t), Config{Policy: hashed}, adversary.None},
		{"sparse/rcn", prototest.SparseGraph(t), rcn, adversary.None},
	} {
		t.Run(tc.name, func(t *testing.T) {
			realCfg, modelCfg := tc.cfg, tc.cfg
			if tc.adv != adversary.None {
				// Seed 8 picks N1, whose leak lets the flap
				// sequence below still quiesce; most other attackers put the
				// network into a persistent oscillation, as leaks can.
				spec := adversary.Pick(tc.g, tc.adv, 1, 8)
				if len(spec.Attackers) == 0 {
					t.Fatal("no attacker picked")
				}
				// A model each: it accumulates injection counts.
				realCfg.Adversary, modelCfg.Adversary = adversary.NewModel(spec), adversary.NewModel(spec)
			}
			compared := 0
			net, err := sim.NewNetwork(sim.Config{
				Topology: tc.g,
				Build: func(env sim.Env) sim.Protocol {
					model := func(env sim.Env) sim.Protocol { return newRefNode(modelCfg, env) }
					return prototest.NewPair(t, env, New(realCfg), model, sameUpdate, &compared)
				},
				DelaySeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			flaps := prototest.Flaps{MaxDown: 3, CrashEvery: 5}
			if tc.cfg.RCN {
				flaps = prototest.Flaps{MaxDown: 1}
			}
			flaps.Run(t, net, tc.g)
			if compared == 0 {
				t.Fatal("nothing was compared")
			}
			if m := realCfg.Adversary; m != nil && (m.InjectedUnits() == 0 || m.InjectedUnits() != modelCfg.Adversary.InjectedUnits()) {
				t.Fatalf("injected %d units, model %d", m.InjectedUnits(), modelCfg.Adversary.InjectedUnits())
			}
			if tc.g == caida && longestList(net, tc.g) <= findScanMax {
				t.Fatalf("no row list is longer than %d: the lockstep run no longer bisects", findScanMax)
			}
			for _, id := range tc.g.Nodes() {
				p := net.Node(id).(*prototest.Pair)
				got, want := p.Real().(*Node).Routes(), p.Model().(*refNode).best
				if len(got) != len(want) {
					t.Fatalf("node %v: %d routes, model has %d", id, len(got), len(want))
				}
				for d, c := range want {
					if !got[d].Equal(c.Path) {
						t.Fatalf("node %v dest %v: route %v, model has %v", id, d, got[d], c.Path)
					}
				}
			}
		})
	}
}

// longestList returns the longest Adj-RIB-In or advertised list of any
// row of any real node in a network of lockstep pairs.
func longestList(net *sim.Network, g *topology.Graph) int {
	longest := 0
	for _, id := range g.Nodes() {
		for _, r := range net.Node(id).(*prototest.Pair).Real().(*Node).rows {
			longest = max(longest, len(r.in), len(r.out))
		}
	}
	return longest
}

// TestEveryDecisionRanksWhatItChanged runs overlapping flap sequences
// (prototest.Flaps) with MRAI batching and with an attacker, every node
// audited after every event it handles: each Loc-RIB entry must be what
// ranking every candidate gives (audit). That is the definition the
// single-offer decisions of Handle and LinkDown must keep.
func TestEveryDecisionRanksWhatItChanged(t *testing.T) {
	brite, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	hashed := policy.GaoRexford{TieBreak: policy.TieHashed}
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
		adv  adversary.Kind
	}{
		{"brite/mrai", brite, Config{Policy: hashed, MRAI: 20 * time.Millisecond}, adversary.None},
		{"caida/mrai", caida, Config{MRAI: 5 * time.Millisecond}, adversary.None},
		{"caida/leak", caida, Config{Policy: hashed}, adversary.Leak},
		{"caida/hijack", caida, Config{Policy: hashed}, adversary.Hijack},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.adv != adversary.None {
				spec := adversary.Pick(tc.g, tc.adv, 1, 8) // see TestNodeMatchesModel
				if len(spec.Attackers) == 0 {
					t.Fatal("no attacker picked")
				}
				cfg.Adversary = adversary.NewModel(spec)
			}
			audits := 0
			check := func(p sim.Protocol) error { return p.(*Node).audit() }
			net, err := sim.NewNetwork(sim.Config{
				Topology:  tc.g,
				Build:     prototest.Audit(t, New(cfg), check, &audits),
				DelaySeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			prototest.Flaps{MaxDown: 3, CrashEvery: 5}.Run(t, net, tc.g)
			if audits == 0 {
				t.Fatal("nothing was audited")
			}
			if m := cfg.Adversary; m != nil && m.InjectedUnits() == 0 {
				t.Fatal("the attacker injected nothing")
			}
		})
	}
}

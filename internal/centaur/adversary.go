package centaur

import (
	"cmp"
	"slices"

	"centaur/internal/adversary"
	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// This file holds the Centaur side of the misbehavior model
// (internal/adversary): how an attacker node deviates on the control
// plane. Everything here is reached only through the nil-checked
// advInjects hook in finish, so honest runs take none of these paths.
//
// The attacks translate BGP's classic misbehaviors into P-graph terms:
//
//   - Leak: a BGP leaker re-exports a provider/peer-learned path to
//     another provider or peer. The Centaur equivalent replays the
//     learned path's downstream links (with their Permission Lists)
//     into the export delta toward a provider/peer — but WITHOUT the
//     self→via link an honest announcement would be rooted by, because
//     announcing that link honestly is exactly what the export filter
//     forbids. The receiver's derivation walks from its root (the
//     attacker) and never reaches the replayed fragment, so the
//     Permission-List structure denies the leak at radius one
//     (DenialUnreachable / DenialNoPermit).
//
//   - Hijack: the attacker fabricates a direct downstream link
//     attacker→victim with the destination mark set, claiming to
//     originate the victim's prefix. This IS derivable at receivers —
//     a fabricated adjacency is the one thing announcement structure
//     cannot refute locally — but the forged route is one hop longer
//     than BGP's forged origination, and wherever an honest route to
//     the victim coexists in the same neighbor graph the derivation
//     turns ambiguous (DenialAmbiguous) instead of being captured.
//
//   - Intercept: no control-plane deviation at all; the attacker
//     forwards announcements honestly and drops the victim's packets
//     in NextHopTo (forward-then-drop).

// advLinkCompare orders links by (From, To), matching the deterministic
// order pgraph's view flush uses, so deltas with injected links remain
// canonically sorted.
func advLinkCompare(a, b routing.Link) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// advInjects returns the adversarial link announcements to append to
// the next delta toward neighbor b. It returns nil for honest nodes,
// for neighbors the attack does not target, and when every injected
// announcement already stands (re-send only on change, so injection
// quiesces and the network still converges).
func (n *Node) advInjects(b routing.NodeID, nb *neighbor) []pgraph.LinkInfo {
	if !n.adv.IsAttacker(n.self) {
		return nil
	}
	type cand struct {
		dest routing.NodeID
		li   pgraph.LinkInfo
	}
	var want []cand
	switch n.adv.Kind() {
	case adversary.Hijack:
		v, ok := n.adv.HijackVictim(n.self)
		if !ok || b == v {
			return nil
		}
		want = append(want, cand{dest: v, li: pgraph.LinkInfo{
			Link:     routing.Link{From: n.self, To: v},
			ToIsDest: true,
		}})
	case adversary.Leak:
		if !adversary.LeakTarget(nb.rel) {
			return nil
		}
		for p, r := range n.routes { // ascending destinations
			d := n.idx.ID(p)
			if r.path == nil || !adversary.LeakClass(r.class) {
				continue
			}
			if len(r.path) < 3 || r.path.Contains(b) {
				// Adjacent destinations have no replayable tail; paths
				// through the receiver keep sender-side loop avoidance.
				continue
			}
			src := n.NeighborGraph(r.via)
			if src == nil {
				continue
			}
			// Replay the learned path's links as announced by the via
			// neighbor, dropping the rooting self→via link (see the
			// file comment). Attributes are copied faithfully — the
			// leak is a replay, not a fabrication.
			for _, l := range r.path.Links()[1:] {
				li := pgraph.LinkInfo{Link: l, ToIsDest: src.IsDest(l.To)}
				if pl := src.Permission(l); pl != nil && !pl.Empty() {
					li.Perm = pl.Pairs()
					// BloomPL mode: the stored list is the compressed
					// form; replay it as received.
					if fs := pl.Filters(); len(fs) > 0 {
						li.Filters = append([]pgraph.DestFilter(nil), fs...)
					}
				}
				want = append(want, cand{dest: d, li: li})
			}
		}
	default:
		return nil
	}
	var out []pgraph.LinkInfo
	seen := make(map[routing.Link]struct{}, len(want))
	perDest := make(map[routing.NodeID]int)
	var destOrder []routing.NodeID
	for _, c := range want {
		if _, dup := seen[c.li.Link]; dup {
			continue // two leaked paths sharing a tail link
		}
		seen[c.li.Link] = struct{}{}
		i, sent := slices.BinarySearchFunc(nb.injected, c.li.Link, func(li pgraph.LinkInfo, l routing.Link) int {
			return advLinkCompare(li.Link, l)
		})
		switch {
		case sent && nb.injected[i].Equal(c.li):
			continue
		case sent:
			nb.injected[i] = c.li
		default:
			nb.injected = slices.Insert(nb.injected, i, c.li)
		}
		out = append(out, c.li)
		if perDest[c.dest] == 0 {
			destOrder = append(destOrder, c.dest)
		}
		perDest[c.dest]++
	}
	for _, d := range destOrder {
		n.adv.NoteInjected(d, perDest[d])
	}
	return out
}

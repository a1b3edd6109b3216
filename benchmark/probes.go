package main

import (
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/wire"
)

// The probes time single calls into a layer that the boundary spans
// cannot isolate, on state harvested from the converged networks of the
// traced run's untraced pass. Each loop runs for probeBudget.

// probeBudget is how long each probe loop of a traced run lasts.
func probeBudget(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 60
}

// probeNodes bounds how many nodes the P-graph probes harvest from.
const probeNodes = 32

var sink int // keeps probe results alive

// pgraphProbes times direct pgraph calls on the P-graphs of a converged
// Centaur network.
func pgraphProbes(net *sim.Network, budget time.Duration, m map[string]float64) {
	var graphs []*pgraph.Graph // neighbor and local P-graphs
	var views [][]pgraph.LinkInfo
	var routes []map[routing.NodeID]routing.Path
	var roots []routing.NodeID
	var links []float64
	for _, id := range net.Topology().Nodes() {
		node, ok := invariant.Unwrap(net.Node(id)).(*centaur.Node)
		if !ok || len(roots) == probeNodes {
			continue
		}
		roots = append(roots, id)
		routes = append(routes, node.Routes())
		graphs = append(graphs, node.LocalGraph())
		for _, nb := range net.Topology().Neighbors(id) {
			if g := node.NeighborGraph(nb.ID); g != nil {
				graphs = append(graphs, g)
			}
			views = append(views, node.ExportedView(nb.ID))
		}
	}
	if len(graphs) == 0 {
		return
	}
	for _, g := range graphs {
		links = append(links, float64(g.NumLinks()))
	}
	m["pgraph.links_per_graph_p50"] = median(links)

	m["pgraph.derive_ns_per_dest"] = timeLoop(budget, func() int {
		n := 0
		for _, g := range graphs {
			for _, d := range g.Dests() {
				p, _ := g.DerivePath(d)
				sink += len(p)
				n++
			}
		}
		return n
	})
	out := map[routing.NodeID]routing.Path{}
	m["pgraph.derive_all_ns_per_dest"] = timeLoop(budget, func() int {
		n := 0
		for _, g := range graphs {
			clear(out)
			n += len(g.DeriveAllInto(out))
		}
		return n
	})
	m["pgraph.build_ns_per_path"] = timeLoop(budget, func() int {
		n := 0
		for i, r := range routes {
			if g, err := pgraph.Build(roots[i], r); err == nil {
				sink += g.NumLinks()
			}
			n += len(r)
		}
		return n
	})
	m["pgraph.diff_ns_per_link"] = timeLoop(budget, func() int {
		n := 0
		for i := range views {
			a, b := views[i], views[(i+1)%len(views)]
			sink += pgraph.Diff(a, b).Size()
			n += len(a) + len(b)
		}
		return max(n, 1)
	})
	m["pgraph.clone_ns_per_link"] = timeLoop(budget, func() int {
		n := 0
		for _, g := range graphs {
			sink += g.Clone().NumLinks()
			n += g.NumLinks()
		}
		return max(n, 1)
	})
	type permProbe struct {
		pl         *pgraph.PermissionList
		dest, next routing.NodeID
	}
	var perms []permProbe
	for _, g := range graphs {
		for _, lp := range g.PermissionLists() {
			for _, e := range lp.Perm.Pairs() {
				perms = append(perms, permProbe{lp.Perm, e.Dest, e.Next})
			}
		}
	}
	if len(perms) > 0 {
		m["pgraph.permit_ns_per_probe"] = timeLoop(budget, func() int {
			for _, p := range perms {
				if p.pl.Permit(p.dest, p.next) {
					sink++
				}
			}
			return len(perms)
		})
	}
}

// wireProbes replays the messages sampled at the kernel boundary.
func wireProbes(msgs []sim.Message, budget time.Duration, m map[string]float64) {
	if len(msgs) == 0 {
		return
	}
	var sizes []float64
	for _, msg := range msgs {
		if bs, ok := msg.(sim.ByteSizer); ok {
			sizes = append(sizes, float64(bs.WireBytes()))
		}
	}
	m["wire.bytes_per_msg_p50"] = median(sizes)
	m["wire.size_ns_per_msg"] = timeLoop(budget, func() int {
		for _, msg := range msgs {
			if bs, ok := msg.(sim.ByteSizer); ok {
				sink += bs.WireBytes()
			}
		}
		return len(msgs)
	})
	var buf []byte
	m["wire.encode_ns_per_msg"] = timeLoop(budget, func() int {
		for _, msg := range msgs {
			buf = encode(buf[:0], msg)
		}
		return len(msgs)
	})
	encoded := make([][]byte, len(msgs))
	for i, msg := range msgs {
		encoded[i] = encode(nil, msg)
	}
	m["wire.decode_ns_per_msg"] = timeLoop(budget, func() int {
		for i, msg := range msgs {
			sink += decode(encoded[i], msg)
		}
		return len(msgs)
	})
}

// encode appends msg's internal/wire encoding, mirroring what each
// message type's WireBytes sizes.
func encode(buf []byte, msg sim.Message) []byte {
	switch m := msg.(type) {
	case centaur.Update:
		return wire.AppendCentaurUpdate(buf, wire.CentaurUpdate{Adds: m.Delta.Adds, Removes: m.Delta.Removes, FailedLinks: m.FailedLinks})
	case bgp.Update:
		return wire.AppendBGPUpdate(buf, wire.BGPUpdate{Dest: m.Dest, Path: m.Path, FailedLinks: m.FailedLinks})
	case ospf.Flood:
		return wire.AppendOSPFLSA(buf, wire.OSPFLSA{Origin: m.LSA.Origin, Seq: m.LSA.Seq, Neighbors: m.LSA.Neighbors})
	case sim.DataFrame:
		return wire.AppendTransportData(buf, wire.TransportData{Seq: m.Seq, Payload: encode(nil, m.Payload)})
	case sim.Ack:
		return wire.AppendTransportAck(buf, wire.TransportAck{Seq: m.Seq})
	case liveness.ControlFrame:
		return wire.AppendBFDControl(buf, wire.BFDControl{State: uint8(m.State), Remaining: m.Remaining})
	}
	return buf
}

// decode decodes what encode produced for msg; the result only keeps
// the work from being optimised away.
func decode(buf []byte, msg sim.Message) int {
	var err error
	switch m := msg.(type) {
	case centaur.Update:
		_, err = wire.DecodeCentaurUpdate(buf)
	case bgp.Update:
		_, err = wire.DecodeBGPUpdate(buf)
	case ospf.Flood:
		_, err = wire.DecodeOSPFLSA(buf)
	case sim.DataFrame:
		var f wire.TransportData
		if f, err = wire.DecodeTransportData(buf); err == nil {
			return decode(f.Payload, m.Payload)
		}
	case sim.Ack:
		_, err = wire.DecodeTransportAck(buf)
	case liveness.ControlFrame:
		_, err = wire.DecodeBFDControl(buf)
	}
	if err != nil {
		return 0
	}
	return 1
}

// forkProbe checkpoints a converged network and times forks of it. The
// network must not be run afterwards.
func forkProbe(net *sim.Network, budget time.Duration, m map[string]float64) {
	cp, err := net.Checkpoint()
	if err != nil {
		return
	}
	m["sim.checkpoint_mb"] = float64(cp.StateBytes()) / 1e6
	m["sim.fork_ms"] = timeLoop(budget, func() int {
		if f, err := cp.Fork(1); err == nil {
			sink += f.Topology().NumNodes()
		}
		return 1
	}) / 1e6
}

// walkProbe times the data-plane walk the flow tracker repeats after
// every dirty simulated instant.
func walkProbe(net *sim.Network, flows []forward.Flow, budget time.Duration, m map[string]float64) {
	if len(flows) == 0 {
		return
	}
	m["forward.walk_ns_per_flow"] = timeLoop(budget, func() int {
		for _, f := range flows {
			p, _ := forward.WalkFlow(net, f)
			sink += len(p)
		}
		return len(flows)
	})
}

// microseconds converts a span self-time log for quantile.
func microseconds(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

package ospf

import (
	"slices"
	"unsafe"

	"centaur/internal/sim"
)

var _ sim.Snapshotter = (*Node)(nil)

// ForkProtocol implements sim.Snapshotter: an independent copy of the
// node's converged link-state database, bound to the fork's env. The
// receiver is only read — forks are taken concurrently from one
// template. Installed LSAs are immutable (originate builds a fresh
// Neighbors slice and nothing writes to an installed one), so cloning
// the lsdb table while sharing the Neighbors arrays is a deep copy in
// effect. The SPF cache is cloned with it: runSPF refills the table in
// place, so a fork must not share the template's.
func (n *Node) ForkProtocol(env sim.Env) sim.Protocol {
	return &Node{
		env:   env,
		self:  n.self,
		idx:   n.idx,
		cfg:   n.cfg,
		seq:   n.seq,
		lsdb:  slices.Clone(n.lsdb),
		spf:   slices.Clone(n.spf),
		spfOK: n.spfOK,
	}
}

// SnapshotBytes implements sim.Snapshotter: the bytes ForkProtocol
// copies (the LSDB and next-hop tables) plus the neighbor lists the
// LSAs reference, which are shared rather than copied.
func (n *Node) SnapshotBytes() int {
	const idSize = int(unsafe.Sizeof(n.self))
	b := len(n.lsdb)*int(unsafe.Sizeof(LSA{})) + len(n.spf)*idSize
	for i := range n.lsdb {
		b += len(n.lsdb[i].Neighbors) * idSize
	}
	return b
}

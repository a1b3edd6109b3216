package ospf

// LSDBSize returns the number of LSAs currently held: the origins whose
// entry has a nonzero sequence number.
func (n *Node) LSDBSize() int {
	held := 0
	for _, lsa := range n.lsdb {
		if lsa.Seq != 0 {
			held++
		}
	}
	return held
}

package liveness

import "centaur/internal/routing"

// SessionState returns the FSM state of the session toward peer
// (StateDown when none exists yet).
func (n *Node) SessionState(peer routing.NodeID) State {
	if s := n.sess.Get(peer); s != nil {
		return s.state
	}
	return StateDown
}

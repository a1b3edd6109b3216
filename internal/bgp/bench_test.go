package bgp_test

import (
	"testing"

	"centaur/internal/bgp"
	"centaur/internal/policy"
	"centaur/internal/prototest"
	"centaur/internal/topogen"
)

// BenchmarkHandleFlip measures one link failed, quiesced, restored and
// quiesced on a converged BGP network, on one fixed input (CAIDA-like
// 250 nodes, seed 7, hashed tie-breaks: the baseline workload's shape),
// so two commits compare with benchstat without running a figure.
func BenchmarkHandleFlip(b *testing.B) {
	g, err := topogen.CAIDALike(250, 7)
	if err != nil {
		b.Fatal(err)
	}
	prototest.FlipBench(b, g, bgp.New(bgp.Config{Policy: policy.GaoRexford{TieBreak: policy.TieHashed}}), 7)
}

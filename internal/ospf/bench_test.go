package ospf_test

import (
	"testing"

	"centaur/internal/ospf"
	"centaur/internal/prototest"
	"centaur/internal/topogen"
)

// BenchmarkHandleFlip measures one link failed, quiesced, restored and
// quiesced on a converged OSPF network, on one fixed input (CAIDA-like
// 250 nodes, seed 7: the baseline workload's shape), so two commits
// compare with benchstat without running a figure.
func BenchmarkHandleFlip(b *testing.B) {
	g, err := topogen.CAIDALike(250, 7)
	if err != nil {
		b.Fatal(err)
	}
	prototest.FlipBench(b, g, ospf.New(), 7)
}

// The Permission List overhead experiment: how many wire bytes the §4.1
// Bloom-compressed representation saves over the explicit grouped
// encoding, measured over every Permission List of every node's local
// P-graph on the measured-like topologies — the message-overhead
// companion to Tables 4 and 5. Alongside the byte accounting it probes
// each compressed list with known non-member destinations and counts
// Bloom false positives, the quantity the FP-safe membership check
// (pgraph.PermitReport) detects and denies at run time.
package experiments

import (
	"fmt"
	"strings"

	"centaur/internal/centaur"
	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/wire"
)

// PLOverheadConfig parameterizes the Permission List overhead
// measurement.
type PLOverheadConfig struct {
	// Solved supplies the measured-like topologies, pre-solved
	// (SolveTable3 with TieOverride), so every static stage shares one
	// solve.
	Solved []SolvedTopology
	// FPRate is the per-filter false-positive target handed to
	// wire.CompressPerm; 0 means centaur.DefaultPLFPRate.
	FPRate float64
	// Workers bounds the per-node fan-out (0 = GOMAXPROCS).
	Workers int
}

// PLOverheadRow aggregates one topology.
type PLOverheadRow struct {
	Name string
	// Lists is the number of non-empty Permission Lists measured (one
	// per permissioned link per local P-graph); CompressedLists the ones
	// where CompressPerm accepted — i.e. the filter container beat the
	// plain grouped encoding. Groups counts the (destination list, next
	// hop) groups across all lists; BloomGroups the groups of accepted
	// lists where the Bloom form won the per-group size race.
	Lists           int64
	CompressedLists int64
	Groups          int64
	BloomGroups     int64
	// ExplicitBytes is the total wire bytes of all measured lists in the
	// plain grouped encoding (wire.PermWireLen). CompressedBytes is what
	// a BloomPL sender actually puts on the wire: the filter container
	// (wire.FiltersWireLen) for accepted lists, the explicit form for
	// refused ones. CompressedBytes < ExplicitBytes whenever any list is
	// accepted, by CompressPerm's whole-list decision rule.
	ExplicitBytes   int64
	CompressedBytes int64
	// Probes counts membership queries of true non-member destinations
	// against Bloom-form groups; FPHits counts the ones the filter
	// falsely admitted (each detected against the explicit oracle and
	// denied by PermitReport).
	Probes int64
	FPHits int64
}

// PLOverheadResult holds both topologies' rows.
type PLOverheadResult struct {
	FPRate float64
	Rows   []PLOverheadRow
}

// PLOverhead builds every node's local P-graph on each solved topology
// and measures explicit-vs-compressed Permission List wire bytes plus
// Bloom false-positive exposure. Fully deterministic for fixed inputs
// (the Bloom hash is seedless FNV).
func PLOverhead(cfg PLOverheadConfig) (*PLOverheadResult, error) {
	fpRate := cfg.FPRate
	if fpRate <= 0 {
		fpRate = centaur.DefaultPLFPRate
	}
	out := &PLOverheadResult{FPRate: fpRate}
	for _, s := range cfg.Solved {
		r, err := plOverheadRow(s.Name, s.Sol, fpRate, cfg.Workers)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, *r)
	}
	return out, nil
}

// plOverheadRow measures one topology, in parallel across nodes with
// per-slot writes and a serial fold (the package's determinism pattern).
func plOverheadRow(name string, sol *solver.Solution, fpRate float64, workers int) (*PLOverheadRow, error) {
	idx := sol.Index()
	n := idx.Len()
	counts := make([]PLOverheadRow, n)
	err := parallelEachWith(n, workers, func(lg *localGraphs, i int) error {
		g, err := lg.build(sol, idx.ID(i))
		if err != nil {
			return err
		}
		c := &counts[i]
		for _, lp := range g.PermissionLists() {
			perm := lp.Perm.Pairs()
			if len(perm) == 0 {
				continue
			}
			explicitLen := int64(wire.PermWireLen(perm))
			c.Lists++
			c.Groups += int64(lp.Perm.NumEntries())
			c.ExplicitBytes += explicitLen
			fs := wire.CompressPerm(perm, fpRate)
			if fs == nil {
				// Compression refused: the sender keeps the explicit form,
				// so that is what the compressed mode pays.
				c.CompressedBytes += explicitLen
				continue
			}
			c.CompressedLists++
			c.CompressedBytes += int64(wire.FiltersWireLen(fs))
			bloomGroups := 0
			for _, f := range fs {
				if f.Filter != nil {
					bloomGroups++
				}
			}
			c.BloomGroups += int64(bloomGroups)
			if bloomGroups == 0 {
				continue
			}
			// False-positive probe: install the compressed form next to
			// the explicit oracle and query every destination the list
			// mentions against every Bloom-form group. PermitReport
			// answers ok for true members (skipped — not a probe), fp for
			// a filter hit the oracle contradicts.
			lp.Perm.SetFilters(fs)
			dests := permDests(perm)
			for _, f := range fs {
				if f.Filter == nil {
					continue
				}
				for _, d := range dests {
					ok, fp := lp.Perm.PermitReport(d, f.Next)
					if ok {
						continue
					}
					c.Probes++
					if fp {
						c.FPHits++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PLOverheadRow{Name: name}
	for i := range counts {
		c := &counts[i]
		out.Lists += c.Lists
		out.CompressedLists += c.CompressedLists
		out.Groups += c.Groups
		out.BloomGroups += c.BloomGroups
		out.ExplicitBytes += c.ExplicitBytes
		out.CompressedBytes += c.CompressedBytes
		out.Probes += c.Probes
		out.FPHits += c.FPHits
	}
	return out, nil
}

// permDests returns the distinct destinations of a canonical pair list,
// in first-appearance order (deterministic for a canonical input).
func permDests(perm []pgraph.PermEntry) []routing.NodeID {
	seen := make(map[routing.NodeID]struct{}, len(perm))
	out := make([]routing.NodeID, 0, len(perm))
	for _, e := range perm {
		if _, ok := seen[e.Dest]; ok {
			continue
		}
		seen[e.Dest] = struct{}{}
		out = append(out, e.Dest)
	}
	return out
}

// String renders the per-topology byte and false-positive accounting.
func (r *PLOverheadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Permission List overhead. Explicit vs Bloom-compressed wire bytes (fp target %.3g).\n", r.FPRate)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s lists %d  compressed %d (%.1f%%)  groups %d  bloom-groups %d\n",
			row.Name, row.Lists, row.CompressedLists,
			100*safeRatio(float64(row.CompressedLists), float64(row.Lists)),
			row.Groups, row.BloomGroups)
		fmt.Fprintf(&b, "  %-12s explicit %d B  compressed %d B  (%.2fx, saved %.1f%%)\n",
			"", row.ExplicitBytes, row.CompressedBytes,
			safeRatio(float64(row.CompressedBytes), float64(row.ExplicitBytes)),
			100*(1-safeRatio(float64(row.CompressedBytes), float64(row.ExplicitBytes))))
		fmt.Fprintf(&b, "  %-12s fp probes %d  hits %d  (rate %.3g)\n",
			"", row.Probes, row.FPHits, safeRatio(float64(row.FPHits), float64(row.Probes)))
	}
	return b.String()
}

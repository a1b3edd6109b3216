// Command centaur-stats runs the paper's static analyses: the topology
// characteristics of Table 3, the P-graph structure of Tables 4 and 5,
// and the immediate single-link-failure overhead of Figure 5.
//
// Usage:
//
//	centaur-stats -table 3 -nodes 4000
//	centaur-stats -table 45 -nodes 4000
//	centaur-stats -fig 5 -nodes 4000 -sample 500
//	centaur-stats -fig 5 -topo caida.rel     # real snapshot
//	centaur-stats -table 45 -fig 5 -ext multipath   # combined, one solve
//	centaur-stats -check-trace trace.jsonl   # validate a -trace file
//	centaur-stats -explain trace.jsonl       # causal analysis of a -prov trace
//
// The analysis modes compose: -table, -fig, and -ext may be combined in
// one invocation, and all stages share one solved-topology computation
// (with -tiebreak override, the default, the figure-5 and extension
// stages reuse the Tables 4-5 solutions directly).
//
// -explain reads a schema-v2 (causal provenance) trace, produced with
// centaur-sim -trace out.jsonl -prov, and prints per-root-event causal
// trees: the convergence wavefront by causal depth, the critical
// send→deliver path with per-hop latency, per-destination churn with
// cycle detection, and a per-link blame summary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"centaur/internal/experiments"
	"centaur/internal/policy"
	"centaur/internal/solver"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "centaur-stats:", err)
		os.Exit(1)
	}
}

// run executes one command line, printing the results to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("centaur-stats", flag.ExitOnError)
	var (
		table    = fs.String("table", "", "reproduce a table: 3 | 45 (Tables 4 and 5 share one computation)")
		fig      = fs.String("fig", "", "reproduce a figure: 5")
		ext      = fs.String("ext", "", "run an extension analysis: multipath")
		k        = fs.Int("k", 3, "paths per destination for -ext multipath")
		nodes    = fs.Int("nodes", 4000, "topology size for generated inputs")
		seed     = fs.Int64("seed", 1, "generation and sampling seed")
		sample   = fs.Int("sample", 500, "links sampled for figure 5 (0 = all)")
		topoFile = fs.String("topo", "", "CAIDA serial-1 relationship file to analyze instead of a generated topology (-fig 5 and -ext multipath; -table rejects it)")
		tiebreak = fs.String("tiebreak", "override", "within-class preference model: lowest-via | hashed | hashed-preferred | override")
		checkTr  = fs.String("check-trace", "", "validate a centaur-sim -trace JSONL file and print its summary")
		explain  = fs.String("explain", "", "causal analysis of a centaur-sim -trace -prov JSONL file")
	)
	fs.Parse(args) // ExitOnError: a malformed flag has already exited
	if *sample < 0 {
		// The runners read any count below one as "all links", so a slip
		// like -sample -3 would silently measure every link.
		return fmt.Errorf("-sample %d: the number of sampled links cannot be negative (0 measures all links)", *sample)
	}
	if *topoFile != "" && *table != "" {
		// Tables 3-5 compare the generated measured-like families row by
		// row; a single snapshot has no place in them.
		return fmt.Errorf("-topo applies to -fig 5 and -ext multipath only, not to -table %s", *table)
	}
	if *checkTr != "" {
		return checkTrace(w, *checkTr)
	}
	if *explain != "" {
		return explainTrace(w, *explain)
	}
	sc := experiments.Scale{Nodes: *nodes, Seed: *seed}
	tb, err := parseTieBreak(*tiebreak)
	if err != nil {
		return err
	}

	// The modes compose: one invocation may combine -table, -fig, and
	// -ext, and every stage that needs a solved topology reads the same
	// memoized solutions instead of cold-solving its own copy.
	var t3 *experiments.Table3Result
	table3 := func() (*experiments.Table3Result, error) {
		if t3 == nil {
			var err error
			if t3, err = experiments.Table3(sc); err != nil {
				return nil, err
			}
		}
		return t3, nil
	}
	var solved []experiments.SolvedTopology
	solveAll := func() ([]experiments.SolvedTopology, error) {
		if solved == nil {
			res, err := table3()
			if err != nil {
				return nil, err
			}
			if solved, err = experiments.SolveTable3(res, policy.TieOverride); err != nil {
				return nil, err
			}
		}
		return solved, nil
	}
	// solveOne yields the figure-5/extension topology: the first
	// measured-like row (shared with solveAll when the tie-break agrees)
	// or the -topo snapshot.
	var oneSol *solver.Solution
	var oneName string
	solveOne := func() (*solver.Solution, string, error) {
		if oneSol != nil {
			return oneSol, oneName, nil
		}
		if *topoFile == "" && tb == policy.TieOverride {
			s, err := solveAll()
			if err != nil {
				return nil, "", err
			}
			oneSol, oneName = s[0].Sol, s[0].Name
			return oneSol, oneName, nil
		}
		var g *topology.Graph
		var name string
		if *topoFile == "" {
			res, err := table3()
			if err != nil {
				return nil, "", err
			}
			g, name = res.Rows[0].Graph, res.Rows[0].Name
		} else {
			var err error
			if g, name, err = loadSnapshot(*topoFile); err != nil {
				return nil, "", err
			}
		}
		sol, err := solver.SolveOpts(g, solver.Options{TieBreak: tb})
		if err != nil {
			return nil, "", err
		}
		oneSol, oneName = sol, name
		return oneSol, oneName, nil
	}

	ran := false
	if *table == "3" {
		res, err := table3()
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
		ran = true
	}
	if *table == "45" || *table == "4" || *table == "5" {
		s, err := solveAll()
		if err != nil {
			return err
		}
		res, err := experiments.Table4And5From(s)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
		ran = true
	}
	if *fig == "5" {
		sol, name, err := solveOne()
		if err != nil {
			return err
		}
		res, err := experiments.Figure5(name, sol, *sample, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
		ran = true
	}
	if *ext == "multipath" {
		sol, _, err := solveOne()
		if err != nil {
			return err
		}
		res, err := experiments.MultipathExtension(sol, *k, *sample, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
		ran = true
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("one of -table {3,45}, -fig 5, -ext multipath, -check-trace, or -explain is required")
	}
	return nil
}

// checkTrace validates a JSONL event trace against the schema
// internal/trace documents and prints what it contains; a
// malformed trace surfaces as a non-zero exit naming the bad line.
func checkTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := trace.Validate(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: valid trace, %d chunks, %d events\n", path, sum.Chunks, sum.Events)
	kinds := make([]string, 0, len(sum.ByKind))
	for k := range sum.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-12s %d\n", k, sum.ByKind[k])
	}
	if sum.ProvenanceChunks > 0 {
		fmt.Fprintf(w, "  provenance: %d/%d chunks schema v2\n", sum.ProvenanceChunks, sum.Chunks)
	}
	if sum.UnconsumedLossDecisions > 0 {
		fmt.Fprintf(w, "  unconsumed fault-loss decisions: %d (losses outrun by link flaps)\n", sum.UnconsumedLossDecisions)
	}
	return nil
}

// explainTrace runs the causal analysis on a schema-v2 trace — read
// once, through the validator, so a malformed trace fails as it does
// under -check-trace — and prints the per-root-event trees and the
// per-series critical-path summary.
func explainTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := trace.Explain(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprint(w, rep)
	return nil
}

// loadSnapshot parses a CAIDA serial-1 relationship file.
func loadSnapshot(topoFile string) (*topology.Graph, string, error) {
	f, err := os.Open(topoFile)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	g, err := topology.ParseRelationships(f)
	if err != nil {
		return nil, "", err
	}
	return g, topoFile, nil
}

func parseTieBreak(s string) (policy.TieBreakMode, error) {
	switch s {
	case "lowest-via":
		return policy.TieLowestVia, nil
	case "hashed":
		return policy.TieHashed, nil
	case "hashed-preferred":
		return policy.TieHashedPreferred, nil
	case "override":
		return policy.TieOverride, nil
	default:
		return 0, fmt.Errorf("unknown tie-break mode %q", s)
	}
}

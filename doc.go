// Package centaur is a from-scratch Go reproduction of "Centaur: A
// Hybrid Approach for Reliable Policy-Based Routing" (Zhang, Perrig,
// Zhang — ICDCS 2009): a routing protocol that keeps link-state's
// link-level announcements and topological data model while enforcing
// path-vector-style policies through downstream-link announcements and
// Permission Lists.
//
// The repository layout:
//
//   - internal/pgraph — the paper's P-graph data structure, Permission
//     Lists, DerivePath (Table 1) and Build (Table 2).
//   - internal/centaur — the Centaur protocol (§3–§4).
//   - internal/bgp, internal/ospf — the path-vector and link-state
//     baselines of the evaluation.
//   - internal/sim — the discrete-event platform standing in for
//     DistComm/SSFNet.
//   - internal/solver — converged policy routes computed statically
//     (ground truth and the Tables 4–5 / Figure 5 engine).
//   - internal/topology, internal/topogen, internal/policy — annotated
//     AS graphs, generators, and Gao–Rexford policies.
//   - internal/experiments — one runner per table/figure of §5.
//   - cmd/* — CLI tools; examples/* — runnable walkthroughs.
//
// See README.md for a guided tour, DESIGN.md for the system inventory
// and fidelity notes, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every table and figure at
// reduced scale; cmd/centaur-bench runs the full-scale reproduction.
package centaur

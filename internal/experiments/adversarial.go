// The adversarial experiment: misbehaving nodes and relationship-
// inference noise, with the invariant checker acting as the damage
// detector. Each grid point fixes one attack scenario — the attack
// kind, the seeded attacker/victim selection, and the noise-relabeled
// topology (internal/adversary) — and runs BOTH path-vector protocols
// against that same scenario, so the headline comparison (how far does
// bad state propagate under BGP vs under Centaur's Permission-List
// structure) is apples to apples. Classification is always against the
// TRUE topology; the protocols route on the noisy one.
//
// Determinism contract: scenarios are constructed serially at grid-
// assembly time (seeded relabeling, seeded attacker selection, one
// solver solution per scenario), jobs write into preallocated result
// slots, telemetry folds are atomic, trace chunks are created serially
// — samples, counters, and the concatenated trace are byte-identical
// for every Workers value.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// AdversarialConfig parameterizes an adversarial sweep over
// (protocol × attack kind × attacker count × noise fraction × trial).
type AdversarialConfig struct {
	// Nodes/LinksPerNode generate the BRITE topology; Topology, when
	// non-nil, overrides them with an explicit graph.
	Nodes        int
	LinksPerNode int
	Topology     *topology.Graph
	// Kinds lists the attack kinds to sweep (empty = route leak only).
	Kinds []adversary.Kind
	// AttackerCounts lists how many simultaneous attackers to select at
	// each point (empty = {1}).
	AttackerCounts []int
	// NoiseFracs lists the fractions of c2p/p2p edges whose labels are
	// flipped before anything else sees the topology, modeling PARI-
	// style relationship-inference error (empty = {0}).
	NoiseFracs []float64
	// Trials per grid point; each trial draws a fresh scenario. Default 1.
	Trials int
	// Seed drives topology generation and per-trial link delays;
	// AdvSeed drives attacker selection and noise relabeling (scenario
	// s uses AdvSeed+s).
	Seed    int64
	AdvSeed int64
	// Flows enables the data-plane forwarding tracker with that many
	// seeded src→dst aggregates, measuring the traffic impact of each
	// attack (hijack/intercept drops show up as blackhole time).
	Flows    int
	FlowSeed int64
	FlowRate float64
	// MaxEvents caps each trial's event count; 0 means the package-wide
	// default.
	MaxEvents int64
	// BloomPL switches the centaur series to §4.1 Bloom-compressed
	// Permission Lists (PLFPRate as in centaur.Config). Structural
	// denials of leaked announcements and Bloom false positives are
	// counted on separate counters (adv.denied.* vs pl.fp_hits) so the
	// containment evidence is never conflated with compression noise.
	BloomPL  bool
	PLFPRate float64
	// Workers, Telemetry, Trace as in FlipConfig. Series names are
	// "adv.centaur" and "adv.bgp".
	Workers   int
	Telemetry *telemetry.Registry
	Trace     *telemetry.TraceCollector
}

// DefaultAdversarialConfig is the acceptance-scale setup: single route
// leak and single hijack on a 150-node topology, clean and noisy labels.
func DefaultAdversarialConfig() AdversarialConfig {
	return AdversarialConfig{
		Nodes:          150,
		LinksPerNode:   2,
		Kinds:          []adversary.Kind{adversary.Leak, adversary.Hijack},
		AttackerCounts: []int{1},
		NoiseFracs:     []float64{0, 0.02},
		Trials:         1,
		Seed:           1,
		AdvSeed:        40_000,
	}
}

// AdversarialSample is one (protocol, scenario) outcome.
type AdversarialSample struct {
	Protocol  string
	Kind      string
	Attackers int
	Noise     float64
	Trial     int
	// Converged reports quiescence within the event budget (injection
	// is deduplicated, so attacked networks still quiesce).
	Converged       bool
	Diagnostic      string
	ConvergenceTime time.Duration
	Messages        int64
	// FlippedEdges is how many relationship labels the noise relabeler
	// actually flipped in this scenario's topology.
	FlippedEdges int
	// Containment, from the detector (invariant.AdvTracker): honest-
	// node counts whose RIB ever held / finally holds contaminated
	// state, the corresponding fractions, and the propagation radius —
	// the maximum true-topology hop distance from an attacker to a node
	// it contaminated.
	Honest            int
	EverContaminated  int
	FinalContaminated int
	EverFraction      float64
	FinalFraction     float64
	Radius            int
	BadEvents         int
	// FinalKinds breaks the quiesced contaminated entries down by kind
	// (foreign-origin, leaked-path, valley-via-leak, valley).
	FinalKinds map[string]int `json:",omitempty"`
	// InjectedUnits counts adversarial announcement units the attackers
	// actually sent; StructuralDenials counts how receivers' P-graph
	// derivations denied injected destinations, by pgraph.DenialReason
	// (Centaur only — this is the Permission-List containment mechanism
	// at work, and is disjoint from Bloom false-positive denials).
	InjectedUnits     int64          `json:",omitempty"`
	StructuralDenials map[string]int `json:",omitempty"`
	// Violations counts invariant breaches of the quiesced state
	// against the scenario's (noisy-label) solver oracle. Contaminated
	// entries necessarily disagree with the honest oracle;
	// UnexplainedViolations is the remainder after discounting entries
	// the detector classified as contaminated and attacker-owned RIBs —
	// collateral damage (e.g. an honest destination denied because an
	// injected fragment made its derivation ambiguous) lands here.
	Violations            int
	UnexplainedViolations int
	// Impact is the integrated data-plane outcome (zero without flows).
	Impact forward.Impact
}

// AdversarialResult holds every sample in deterministic
// (kind, attackers, noise, trial, protocol) order.
type AdversarialResult struct {
	Samples   []AdversarialSample
	HasImpact bool
}

// advScenario is one fully-drawn attack instance, shared by the
// protocol pair that runs against it.
type advScenario struct {
	kind    adversary.Kind
	noise   float64
	trial   int
	topoRun *topology.Graph // noisy labels: what the protocols see
	flipped int
	spec    adversary.Spec
	sol     *solver.Solution // solves topoRun
	flows   []forward.Flow
}

// advJob is one trial: one protocol against one scenario.
type advJob struct {
	protocol  string
	build     sim.Builder
	topoTrue  *topology.Graph
	scen      *advScenario
	model     *adversary.Model // per-job: it accumulates injection counts
	delaySeed int64
	maxEvents int64
	out       *AdversarialSample
	tele      *telemetry.Registry
	chunk     *telemetry.TraceChunk
	flowRate  float64
}

func (j advJob) run() error {
	simCfg := sim.Config{
		Topology:  j.scen.topoRun,
		Build:     j.build,
		DelaySeed: j.delaySeed,
	}
	if j.chunk != nil {
		simCfg.Trace = j.chunk.Observe
		simCfg.Provenance = j.chunk.Provenance()
	}
	net, err := sim.NewNetwork(simCfg)
	if err != nil {
		return fmt.Errorf("experiments: adversarial %s: %w", j.protocol, err)
	}
	// Root-cause markers for the causal trace: one adv-inject root per
	// attacker, before any protocol event fires.
	for _, a := range j.model.Attackers() {
		net.NoteAdversaryInject(a, j.model.VictimOf(a))
	}
	det := invariant.NewAdvTracker(j.topoTrue, j.model, net)
	det.Install()
	var tracker *forward.Tracker
	if len(j.scen.flows) > 0 {
		tracker = forward.NewTracker(net, forward.Config{Flows: j.scen.flows, PacketRate: j.flowRate})
		tracker.Install()
	}
	s := j.out
	conv, st, err := net.RunToConvergence(j.maxEvents)
	if err != nil {
		s.Diagnostic = err.Error()
		st = net.Stats()
	} else {
		s.Converged = true
		s.ConvergenceTime = conv
	}
	s.Messages = st.Messages
	if tracker != nil {
		s.Impact = tracker.Window(net.Now())
	}
	rep := det.Report()
	s.Honest = rep.Honest
	s.EverContaminated = rep.EverContaminated
	s.FinalContaminated = rep.FinalContaminated
	s.EverFraction = rep.EverFraction()
	s.FinalFraction = rep.FinalFraction()
	s.Radius = rep.Radius
	s.BadEvents = rep.BadEvents
	if len(rep.FinalKinds) > 0 {
		s.FinalKinds = rep.FinalKinds
	}
	s.InjectedUnits = j.model.InjectedUnits()
	if d := invariant.StructuralDenials(net, j.topoTrue, j.model); len(d) > 0 {
		s.StructuralDenials = d
	}
	if s.Converged {
		j.verify(net, s)
	}
	j.record(st, conv, s)
	return nil
}

// verify checks the quiesced state against the scenario's (noisy-label)
// solver oracle and splits the breaches into detector-explained and
// unexplained.
func (j advJob) verify(net *sim.Network, s *AdversarialSample) {
	vs := invariant.Check(net, j.scen.sol)
	s.Violations = len(vs)
	for _, v := range vs {
		if j.model.IsAttacker(v.Node) {
			continue
		}
		var p routing.Path
		if rib, ok := invariant.Unwrap(net.Node(v.Node)).(invariant.PathRIB); ok {
			p = rib.BestPath(v.Dest)
		}
		if _, _, bad := invariant.ClassifyBad(j.topoTrue, j.model, v.Dest, p); bad {
			continue
		}
		s.UnexplainedViolations++
	}
}

// record folds the trial's accounting into telemetry. Every adv.*
// counter registers only when it observed something, so a run of the
// suite that injects nothing leaves the snapshot untouched.
func (j advJob) record(st sim.Stats, conv time.Duration, s *AdversarialSample) {
	r := j.tele
	if !r.Enabled() {
		return
	}
	series := "adv." + j.protocol
	r.Counter("sim.msgs").Add(st.Messages)
	r.Counter("sim.units").Add(st.Units)
	r.Counter("sim.bytes").Add(st.Bytes)
	r.Counter("sim.route_changes").Add(st.RouteChanges)
	for kind, msgs := range st.MsgsByKind {
		r.Counter(series + ".msgs." + kind).Add(msgs)
		r.Counter(series + ".units." + kind).Add(st.UnitsByKind[kind])
		r.Counter(series + ".bytes." + kind).Add(st.BytesByKind[kind])
	}
	r.Distribution(series + ".conv_ms").Observe(float64(conv) / float64(time.Millisecond))
	if s.InjectedUnits > 0 {
		r.Counter(series + ".injected_units").Add(s.InjectedUnits)
	}
	if s.BadEvents > 0 {
		r.Counter(series + ".bad_events").Add(int64(s.BadEvents))
	}
	if s.EverContaminated > 0 {
		r.Counter(series + ".contaminated_nodes").Add(int64(s.EverContaminated))
	}
	for _, kv := range sortedKindCounts(s.StructuralDenials) {
		r.Counter(series + ".denied." + kv.k).Add(int64(kv.v))
	}
	r.Distribution(series + ".radius").Observe(float64(s.Radius))
}

type advKindCount struct {
	k string
	v int
}

func sortedKindCounts(m map[string]int) []advKindCount {
	out := make([]advKindCount, 0, len(m))
	for k, v := range m {
		out = append(out, advKindCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// advProtocol pairs a series name with its builder and the misbehavior
// model instance wired into it. Each protocol gets its OWN model from
// the shared spec — models accumulate injection accounting and the two
// jobs of a scenario run concurrently.
type advProtocol struct {
	name  string
	model *adversary.Model
	build sim.Builder
}

// adversarialProtocols is the protocol pair under comparison. OSPF is
// out of scope: it has no export policy to violate and no path RIB for
// the classifier to inspect.
func adversarialProtocols(spec adversary.Spec, cfg AdversarialConfig) []advProtocol {
	cm := adversary.NewModel(spec)
	bm := adversary.NewModel(spec)
	return []advProtocol{
		{"centaur", cm, centaur.New(centaur.Config{
			Policy:    hashedPolicy,
			Adversary: cm,
			BloomPL:   cfg.BloomPL,
			PLFPRate:  cfg.PLFPRate,
		})},
		{"bgp", bm, bgp.New(bgp.Config{Policy: hashedPolicy, Adversary: bm})},
	}
}

// RunAdversarial sweeps the (kind × attackers × noise × trial) scenario
// grid, running both protocols against each scenario.
func RunAdversarial(cfg AdversarialConfig) (*AdversarialResult, error) {
	g := cfg.Topology
	if g == nil {
		var err error
		if g, err = topogen.BRITE(cfg.Nodes, cfg.LinksPerNode, cfg.Seed); err != nil {
			return nil, err
		}
	}
	baseSol, err := solver.SolveOpts(g, solver.Options{TieBreak: hashedPolicy.TieBreak})
	if err != nil {
		return nil, err
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []adversary.Kind{adversary.Leak}
	}
	counts := cfg.AttackerCounts
	if len(counts) == 0 {
		counts = []int{1}
	}
	noises := cfg.NoiseFracs
	if len(noises) == 0 {
		noises = []float64{0}
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	budget := cfg.MaxEvents
	if budget <= 0 {
		budget = maxEvents
	}

	// Scenario construction is serial: seeded noise, seeded selection,
	// and one oracle solve per noisy topology.
	var scens []*advScenario
	scenarioIndex := int64(0)
	for _, kind := range kinds {
		for _, count := range counts {
			for _, noise := range noises {
				for trial := 0; trial < trials; trial++ {
					advSeed := cfg.AdvSeed + scenarioIndex
					scenarioIndex++
					scen := &advScenario{kind: kind, noise: noise, trial: trial}
					scen.topoRun = g
					scen.sol = baseSol
					if noise > 0 {
						noisy, flips := adversary.RelabelNoise(g, noise, advSeed)
						scen.topoRun = noisy
						scen.flipped = len(flips)
						if scen.sol, err = solver.SolveOpts(noisy, solver.Options{TieBreak: hashedPolicy.TieBreak}); err != nil {
							return nil, err
						}
					}
					scen.spec = adversary.Pick(scen.topoRun, kind, count, advSeed)
					if scen.flows, err = sampleReachableFlows(scen.topoRun, cfg.Flows, cfg.FlowSeed, scen.sol); err != nil {
						return nil, err
					}
					scens = append(scens, scen)
				}
			}
		}
	}

	res := &AdversarialResult{HasImpact: cfg.Flows > 0}
	var jobs []advJob
	for _, scen := range scens {
		for _, p := range adversarialProtocols(scen.spec, cfg) {
			i := len(jobs)
			res.Samples = append(res.Samples, AdversarialSample{
				Protocol:  p.name,
				Kind:      scen.kind.String(),
				Attackers: len(scen.spec.Attackers),
				Noise:     scen.noise,
				Trial:     scen.trial,
			})
			jobs = append(jobs, advJob{
				protocol:  p.name,
				build:     p.build,
				topoTrue:  g,
				scen:      scen,
				model:     p.model,
				delaySeed: cfg.Seed + int64(i),
				maxEvents: budget,
				tele:      cfg.Telemetry,
				chunk:     cfg.Trace.Chunk("adv."+p.name, cfg.Seed+int64(i)),
				flowRate:  cfg.FlowRate,
			})
		}
	}
	for i := range jobs {
		jobs[i].out = &res.Samples[i]
		jobs[i].out.FlippedEdges = jobs[i].scen.flipped
	}
	poolProgress.total.Add(int64(len(jobs)))
	err = parallelEach(len(jobs), cfg.Workers, func(i int) error {
		err := jobs[i].run()
		poolProgress.done.Add(1)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders one line per sample: the attack point, containment,
// radius, and the structural-denial evidence.
func (r *AdversarialResult) String() string {
	var b []byte
	b = append(b, "Adversarial. Contamination containment per (kind, attackers, noise, trial).\n"...)
	for _, s := range r.Samples {
		line := fmt.Sprintf("  %-8s %-9s atk=%d noise=%.3f trial=%d  ever %d/%d final %d/%d  radius %d",
			s.Protocol, s.Kind, s.Attackers, s.Noise, s.Trial,
			s.EverContaminated, s.Honest, s.FinalContaminated, s.Honest, s.Radius)
		if !s.Converged {
			line += "  DIVERGED"
		}
		if s.InjectedUnits > 0 {
			line += fmt.Sprintf("  injected=%d", s.InjectedUnits)
		}
		for _, kv := range sortedKindCounts(s.StructuralDenials) {
			line += fmt.Sprintf("  denied-%s=%d", kv.k, kv.v)
		}
		if s.UnexplainedViolations > 0 {
			line += fmt.Sprintf("  unexplained=%d", s.UnexplainedViolations)
		}
		if r.HasImpact {
			line += fmt.Sprintf("  bh=%.4fs", s.Impact.BlackholeSec)
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	return string(b)
}

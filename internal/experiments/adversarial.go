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
// solver solution per scenario); otherwise as for every trial (see
// trial) — samples, counters, and the concatenated trace are
// byte-identical for every Workers value.
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
	"centaur/internal/topology"
	"centaur/internal/trace"
)

// AdversarialConfig is the adversarial sweep's own axes: (protocol ×
// attack kind × attacker count × noise fraction × trial).
type AdversarialConfig struct {
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
	// AdvSeed drives attacker selection and noise relabeling (scenario s
	// uses AdvSeed+s).
	AdvSeed int64
	// bloomPL switches the centaur series to §4.1 Bloom-compressed
	// Permission Lists (plFPRate as centaur.Config.PLFPRate). Structural
	// denials of leaked announcements and Bloom false positives are
	// counted on separate counters (adv.denied.* vs pl.fp_hits) so the
	// containment evidence is never conflated with compression noise;
	// only tests switch it on, to check that separation.
	bloomPL  bool
	plFPRate float64
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

// advHooks returns the setup and body of one protocol's trial against
// scen: the attack markers and the contamination detector go in before
// anything is simulated; the body measures containment into s and
// splits the quiesced state's breaches into explained and unexplained.
// model is the protocol's own (it accumulates injection counts) and g
// the true topology the detector classifies against.
func advHooks(g *topology.Graph, scen *advScenario, model *adversary.Model, s *AdversarialSample) (func(*sim.Network), func(*trial, *sim.Network, *forward.Tracker) error) {
	var det *invariant.AdvTracker
	setup := func(net *sim.Network) {
		// Root-cause markers for the causal trace: one adv-inject root per
		// attacker, before any protocol event fires.
		for _, a := range model.Attackers() {
			net.Emit(trace.NoteAdvInject, a, model.VictimOf(a))
		}
		det = invariant.NewAdvTracker(g, model, net)
		det.Install()
	}
	body := func(t *trial, net *sim.Network, tracker *forward.Tracker) error {
		o := t.converge(net)
		s.Converged, s.Diagnostic, s.ConvergenceTime = o.sample()
		s.Messages = o.st.Messages
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
		s.InjectedUnits = model.InjectedUnits()
		if d := invariant.StructuralDenials(net, g, model); len(d) > 0 {
			s.StructuralDenials = d
		}
		if s.Converged {
			// Breaches against the scenario's (noisy-label) oracle that the
			// detector does not explain as contamination, outside the
			// attackers' own RIBs.
			vs := invariant.Check(net, scen.sol)
			s.Violations = len(vs)
			for _, v := range vs {
				if model.IsAttacker(v.Node) {
					continue
				}
				var p routing.Path
				if rib, ok := sim.Unwrap(net.Node(v.Node)).(invariant.PathRIB); ok {
					p = rib.BestPath(v.Dest)
				}
				if _, _, bad := invariant.ClassifyBad(g, model, v.Dest, p); !bad {
					s.UnexplainedViolations++
				}
			}
		}
		// Every adv.* counter registers only when it observed something, so
		// a run of the suite that injects nothing leaves the snapshot
		// untouched.
		r := t.tele
		if !r.Enabled() {
			return nil
		}
		t.record(o.st, ".conv_ms", o.conv)
		if s.InjectedUnits > 0 {
			r.Counter(t.series + ".injected_units").Add(s.InjectedUnits)
		}
		if s.BadEvents > 0 {
			r.Counter(t.series + ".bad_events").Add(int64(s.BadEvents))
		}
		if s.EverContaminated > 0 {
			r.Counter(t.series + ".contaminated_nodes").Add(int64(s.EverContaminated))
		}
		for _, kv := range sortedKindCounts(s.StructuralDenials) {
			r.Counter(t.series + ".denied." + kv.k).Add(int64(kv.v))
		}
		r.Distribution(t.series + ".radius").Observe(float64(s.Radius))
		return nil
	}
	return setup, body
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

// advProtocols is the protocol pair under comparison. OSPF is out of
// scope: it has no export policy to violate and no path RIB for the
// classifier to inspect.
var advProtocols = []string{"centaur", "bgp"}

// advBuild returns protocol name's builder with the misbehavior model
// wired into it. Each trial gets its OWN model from the shared spec —
// models accumulate injection accounting and the two trials of a
// scenario run concurrently.
func advBuild(name string, spec adversary.Spec, cfg AdversarialConfig) (*adversary.Model, sim.Builder) {
	m := adversary.NewModel(spec)
	if name == "bgp" {
		return m, bgp.New(bgp.Config{Policy: hashedPolicy, Adversary: m})
	}
	return m, hashedCentaur(centaur.Config{Adversary: m, BloomPL: cfg.bloomPL, PLFPRate: cfg.plFPRate})
}

// RunAdversarial sweeps cfg's (kind × attackers × noise × trial)
// scenario grid on s's BRITE topology, running both protocols against
// each scenario. It reads s's topology, seed (which also drives the
// per-trial link delays), Workers, observability and flow fields; series
// names are "adv.centaur" and "adv.bgp".
func RunAdversarial(s Scenario, cfg AdversarialConfig) (*AdversarialResult, error) {
	g, err := s.brite()
	if err != nil {
		return nil, err
	}
	baseSol, err := hashedSolve(g)
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
	nTrials := max(cfg.Trials, 1)

	// Scenario construction is serial: seeded noise, seeded selection,
	// and one oracle solve per noisy topology.
	var scens []*advScenario
	scenarioIndex := int64(0)
	for _, kind := range kinds {
		for _, count := range counts {
			for _, noise := range noises {
				for k := 0; k < nTrials; k++ {
					advSeed := cfg.AdvSeed + scenarioIndex
					scenarioIndex++
					scen := &advScenario{kind: kind, noise: noise, trial: k}
					scen.topoRun = g
					scen.sol = baseSol
					if noise > 0 {
						noisy, flips := adversary.RelabelNoise(g, noise, advSeed)
						scen.topoRun = noisy
						scen.flipped = len(flips)
						if scen.sol, err = hashedSolve(noisy); err != nil {
							return nil, err
						}
					}
					scen.spec = adversary.Pick(scen.topoRun, kind, count, advSeed)
					if scen.flows, err = sampleReachableFlows(scen.topoRun, s.Flows, s.FlowSeed, scen.sol); err != nil {
						return nil, err
					}
					scens = append(scens, scen)
				}
			}
		}
	}

	res := &AdversarialResult{
		Samples:   make([]AdversarialSample, len(scens)*len(advProtocols)),
		HasImpact: s.Flows > 0,
	}
	var trials []trial
	for _, scen := range scens {
		for _, name := range advProtocols {
			i := len(trials)
			res.Samples[i] = AdversarialSample{
				Protocol:     name,
				Kind:         scen.kind.String(),
				Attackers:    len(scen.spec.Attackers),
				Noise:        scen.noise,
				Trial:        scen.trial,
				FlippedEdges: scen.flipped,
			}
			model, build := advBuild(name, scen.spec, cfg)
			setup, body := advHooks(g, scen, model, &res.Samples[i])
			series := "adv." + name
			trials = append(trials, trial{
				label: "experiments: adversarial " + name,
				topo:  scen.topoRun, build: build, delaySeed: s.Seed + int64(i),
				series: series, tele: s.Telemetry, chunk: s.Trace.Chunk(series, s.Seed+int64(i)),
				flows: scen.flows, flowRate: s.FlowRate,
				setup: setup, body: body,
			})
		}
	}
	if err := runTrials(trials, s.Workers); err != nil {
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

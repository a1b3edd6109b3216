package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/pgraph"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/trace"
)

// CLI is the command-line surface centaur-sim and centaur-bench share.
// Register declares each shared flag once and binds it straight into the
// Scenario or grid config it sets; Start validates the command line and
// sets up what it asks for. Each command keeps its own defaults — the
// field values Register finds — and its own help text.
type CLI struct {
	Scenario Scenario
	Rel      ReliabilityConfig
	Adv      AdversarialConfig
	// AdvOn and Scaling are -adv and -scaling; ScalingMax is
	// -scaling-max-nodes.
	AdvOn, Scaling bool
	ScalingMax     int
	// Loss and Churn are the -loss and -churn lists; Start parses them
	// into Rel.
	Loss, Churn string
	// TraceFile and Prov are -trace and -prov.
	TraceFile string
	Prov      bool

	prog                            string
	fs                              *flag.FlagSet
	cpuprofile, memprofile, debugAt string
	progress                        time.Duration
}

// NewCLI returns command prog's shared flags at the defaults both
// commands use.
func NewCLI(prog string) *CLI {
	return &CLI{
		prog:       prog,
		Scenario:   Scenario{Seed: 1},
		Rel:        ReliabilityConfig{FaultSeed: 10_000},
		Adv:        AdversarialConfig{AdvSeed: 40_000},
		ScalingMax: 16000,
		Churn:      "0,10",
	}
}

// setupFlags are read by every mode of either command.
var setupFlags = []string{"cpuprofile", "memprofile", "debug-addr", "progress"}

// sharedHelp is the help text of the flags whose text both commands
// share; the commands supply the rest.
var sharedHelp = map[string]string{
	"workers":        "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)",
	"trials-per-net": "flip trials per fresh network; 0 = one shared network per series (historical semantics)",
	"cpuprofile":     "write a CPU profile to this file",
	"memprofile":     "write a heap profile to this file on exit",
	"debug-addr":     "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)",
	"progress":       "print a progress line to stderr at this interval (0 = off)",
}

// Register declares the shared flags on fs, with help[name] as the help
// text of every flag sharedHelp does not cover.
func (c *CLI) Register(fs *flag.FlagSet, help map[string]string) {
	c.fs = fs
	h := func(name string) string {
		if s, ok := sharedHelp[name]; ok {
			return s
		}
		return help[name]
	}
	s := &c.Scenario
	fs.Int64Var(&s.Seed, "seed", s.Seed, h("seed"))
	fs.IntVar(&s.Workers, "workers", s.Workers, h("workers"))
	fs.IntVar(&s.TrialsPerNetwork, "trials-per-net", s.TrialsPerNetwork, h("trials-per-net"))
	fs.IntVar(&s.Flows, "flows", s.Flows, h("flows"))
	fs.StringVar(&c.TraceFile, "trace", "", h("trace"))
	fs.BoolVar(&c.Prov, "prov", false, h("prov"))
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", h("cpuprofile"))
	fs.StringVar(&c.memprofile, "memprofile", "", h("memprofile"))
	fs.StringVar(&c.debugAt, "debug-addr", "", h("debug-addr"))
	fs.DurationVar(&c.progress, "progress", 0, h("progress"))
	fs.StringVar(&c.Loss, "loss", c.Loss, h("loss"))
	fs.Float64Var(&c.Rel.Dup, "dup", 0, h("dup"))
	fs.DurationVar(&c.Rel.Jitter, "jitter", 0, h("jitter"))
	fs.StringVar(&c.Churn, "churn", c.Churn, h("churn"))
	fs.IntVar(&c.Rel.Crashes, "crashes", c.Rel.Crashes, h("crashes"))
	fs.Int64Var(&c.Rel.FaultSeed, "fault-seed", c.Rel.FaultSeed, h("fault-seed"))
	fs.BoolVar(&c.Rel.BloomPL, "bloom-pl", false, h("bloom-pl"))
	fs.Float64Var(&c.Rel.PLFPRate, "pl-fp-rate", 0, h("pl-fp-rate"))
	fs.BoolVar(&c.AdvOn, "adv", false, h("adv"))
	fs.Int64Var(&c.Adv.AdvSeed, "adv-seed", c.Adv.AdvSeed, h("adv-seed"))
	fs.BoolVar(&c.Scaling, "scaling", false, h("scaling"))
	fs.IntVar(&c.ScalingMax, "scaling-max-nodes", c.ScalingMax, h("scaling-max-nodes"))
}

// IsSet reports whether flag name was set on the command line.
func (c *CLI) IsSet(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// Reject fails with one line naming the first flag set on the command
// line that mode does not read: one neither in reads nor a setup flag
// (-cpuprofile, -memprofile, -debug-addr, -progress), which every mode
// honours.
func (c *CLI) Reject(mode string, reads []string) error {
	var err error
	c.fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(reads, f.Name) && !slices.Contains(setupFlags, f.Name) {
			err = fmt.Errorf("-%s: %s does not read it", f.Name, mode)
		}
	})
	return err
}

// Start validates the parsed command line — no integer flag below zero
// (every one is a count, and the runners read a count below one as
// "all" or "the default"), -prov only with -trace, well-formed -loss and
// -churn lists — and sets up what the setup flags ask for: profiles; a
// telemetry registry from newRegistry, wired into every protocol layer,
// when always is set or -trace, -debug-addr or -progress needs one; the
// trace collector; the debug endpoint; the progress line. stop ends them.
func (c *CLI) Start(newRegistry func() *telemetry.Registry, always bool) (stop func(), err error) {
	c.fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok && err == nil {
			if v, ok := g.Get().(int); ok && v < 0 {
				err = fmt.Errorf("-%s %d: a count cannot be negative", f.Name, v)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if c.Prov && c.TraceFile == "" {
		return nil, fmt.Errorf("-prov requires -trace (provenance rides on the event trace)")
	}
	if c.Rel.LossRates, err = ParseRates(c.Loss); err != nil {
		return nil, fmt.Errorf("-loss: %w", err)
	}
	if c.Rel.ChurnRates, err = ParseRates(c.Churn); err != nil {
		return nil, fmt.Errorf("-churn: %w", err)
	}

	stopProfiles, err := telemetry.StartProfiles(c.prog, c.cpuprofile, c.memprofile)
	if err != nil {
		return nil, err
	}
	stops := []func(){stopProfiles}
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	s := &c.Scenario
	if always || c.TraceFile != "" || c.debugAt != "" || c.progress > 0 {
		reg := newRegistry()
		s.Telemetry = reg
		bgp.SetTelemetry(reg)
		ospf.SetTelemetry(reg)
		centaur.SetTelemetry(reg)
		pgraph.SetTelemetry(reg)
		solver.SetTelemetry(reg)
		forward.SetTelemetry(reg)
		liveness.SetTelemetry(reg)
	}
	if c.TraceFile != "" {
		s.Trace = trace.NewCollector()
		if c.Prov {
			s.Trace = trace.NewCollectorV2()
		}
	}
	if c.debugAt != "" {
		addr, stopDebug, err := telemetry.ServeDebug(c.debugAt, s.Telemetry)
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, stopDebug)
		fmt.Fprintf(os.Stderr, "%s: debug endpoint at http://%s/debug/vars\n", c.prog, addr)
	}
	if c.progress > 0 {
		stops = append(stops, StartProgress(os.Stderr, c.progress, s.Telemetry))
	}
	return stop, nil
}

// WriteTrace writes the collected event trace to the -trace file.
func (c *CLI) WriteTrace() error {
	f, err := os.Create(c.TraceFile)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if _, err := c.Scenario.Trace.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	return f.Close()
}

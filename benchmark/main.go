// Command benchmark is the repository's performance ruler: five named
// workloads driven through the public APIs of centaur/internal/*, seven
// end-to-end metrics per workload, and a traced run that times every
// layer from outside. See README.md in this directory.
//
//	benchmark -workload flips -seed 1 -seconds 15 -trace 0   one run; the last line is the result
//	benchmark -seed 1 -out results.json                      every workload, untraced then traced
//	benchmark -compare a.json b.json                         two -out files against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"centaur/internal/telemetry"
)

func main() {
	name := flag.String("workload", "", "run this workload only and print its result as the last line")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", runSeconds, "length of the measured phase of an untraced run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	out := flag.String("out", "", "write the report to this JSON file (and a traced run's span trees beside it)")
	compare := flag.Bool("compare", false, "compare the two report files given as arguments")
	flag.Parse()

	// One simulation goroutine; a second processor, where there is one,
	// only runs the collector.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *name == "":
		err = runAll(*seed, *seconds, *out)
	default:
		spec := findWorkload(*name)
		if spec == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var r *report
		if r, err = runOne(spec, *seed, *seconds, *trace != 0, *out); err != nil {
			break
		}
		if *out != "" {
			if err = writeJSON(*out, r); err != nil {
				break
			}
		}
		specs := endToEnd
		if r.Trace {
			specs = perLayer
		}
		err = r.print(os.Stdout, specs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process.
func runOne(spec *workloadSpec, seed int64, seconds int, traced bool, out string) (*report, error) {
	reg := telemetry.New()
	setTelemetry(reg)
	defer setTelemetry(nil)
	r := &report{Workload: spec.Name, Seed: seed, Trace: traced, Seconds: seconds}

	if !traced {
		p := runPass(spec, seed, nil, reg, setupRepeats, 0, time.Duration(seconds)*time.Second)
		r.collect(p)
		r.fill(endToEnd, endToEndValues(p))
		return r, nil
	}

	// A traced run does round 0 twice, untraced and traced: the counts
	// and the digest of the two must agree, and the difference in time
	// is what tracing costs.
	un := runPass(spec, seed, nil, reg, 1, 1, 0)
	tr := runPass(spec, seed, newTracer(), reg, 1, 1, 0)
	r.collect(tr)
	r.Attempted++ // the comparison of the two digests is an operation too
	if un.digest() != tr.digest() {
		r.Failed++
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf("traced digest %s differs from untraced %s", tr.digest(), un.digest()))
	}
	budget := probeBudget(seconds)
	probes := map[string]float64{}
	if un.b.centaurNet != nil {
		pgraphProbes(un.b.centaurNet, budget, probes)
	}
	if un.b.walkNet != nil {
		walkProbe(un.b.walkNet, un.b.flows, budget, probes)
	}
	wireProbes(tr.b.tr.msgs, budget, probes)
	if un.b.forkNet != nil {
		forkProbe(un.b.forkNet, budget, probes) // last: the network is a read-only template from here on
	}
	r.fill(perLayer, perLayerValues(un, tr, probes))
	if out != "" {
		if err := tr.b.tr.writeSpans(spansPath(out)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// collect copies the pass's verdict into the report.
func (r *report) collect(p *pass) {
	r.Rounds = len(p.rounds)
	r.OpSamples = len(p.b.ops)
	r.SimDigest = p.digest()
	r.Attempted = p.b.attempted
	r.Failed = p.b.failed
	r.Failures = append(r.Failures, p.b.failures...)
	r.Correct = p.b.failed == 0 && p.b.attempted > 0
}

// runAll runs every workload, untraced and then traced, each in a fresh
// child process, so telemetry registries, collector state and peak RSS
// of one do not leak into the next.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Each child writes its report (and, traced, its span trees) beside
	// out; only the span trees stay.
	base := strings.TrimSuffix(out, ".json")
	if out == "" {
		dir, err := os.MkdirTemp("", "benchmark-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		base = filepath.Join(dir, "run")
	}
	file := reportFile{Machine: thisMachine(), Sizes: size}
	ok := true
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			childOut := fmt.Sprintf("%s.%s.trace%s.json", base, w.Name, trace)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", childOut)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
			// Everything but the child's result line.
			lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Println()
			data, err := os.ReadFile(childOut)
			if err != nil {
				return err
			}
			os.Remove(childOut)
			var r report
			if err := json.Unmarshal(data, &r); err != nil {
				return fmt.Errorf("workload %s: reading its report: %w", w.Name, err)
			}
			ok = ok && r.Correct
			file.Runs = append(file.Runs, r)
		}
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("at least one operation failed")
	}
	return nil
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"centaur/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// TestGoldenArtefacts: a cold-start sweep and a solver-verified flip
// series print exactly what the golden files hold. A change to the
// protocols' speed or memory layout moves no message, unit, byte or
// convergence time; regenerate with -update only when the protocol
// itself is meant to change.
func TestGoldenArtefacts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig8_40_60.golden", []string{"-fig", "8", "-sizes", "40,60", "-workers", "1"}},
		{"fig6_60_verify.golden", []string{"-fig", "6", "-nodes", "60", "-flips", "6", "-verify"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "../../internal/experiments/testdata/"+tc.golden, out.Bytes())
		})
	}
}

// TestGoldenTracedRuns: the user-impact reliability sweep, the
// adversarial sweep with provenance and the protocol ladder print the
// same table, fill the telemetry registry with the same snapshot and
// write the same event trace (pinned by its SHA-256) as the golden
// files record, serially and at four workers. -update rewrites the files
// from the serial run.
func TestGoldenTracedRuns(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"rel_impact_40.golden", []string{"-rel", "-nodes", "40", "-loss", "0,0.1", "-churn", "10", "-crashes", "1",
			"-flows", "24", "-detect-interval", "2ms", "-oracle-detect", "-fault-seed", "7"}},
		{"adv_prov_80.golden", []string{"-adv", "-nodes", "80", "-adv-kinds", "leak,hijack", "-adv-noise", "0,0.05", "-prov"}},
		{"compare_60.golden", []string{"-compare", "-nodes", "60", "-flips", "10", "-seed", "3"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			path := "../../internal/experiments/testdata/" + tc.golden
			for _, workers := range []string{"1", "4"} {
				got := tracedRun(t, append(tc.args, "-workers", workers))
				if *update && workers == "1" {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("-workers %s: run differs from %s:\n--- got ---\n%s\n--- want ---\n%s", workers, path, got, want)
				}
			}
		})
	}
}

// tracedRun runs args with -trace into a temporary file and returns the
// printed output, the JSON snapshot of the run's telemetry registry and
// the SHA-256 of the trace bytes, one section after the other.
func tracedRun(t *testing.T, args []string) []byte {
	t.Helper()
	var reg *telemetry.Registry
	newRegistry = func() *telemetry.Registry { reg = telemetry.New(); return reg }
	defer func() { newRegistry = telemetry.New }()
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run(append(args, "-trace", trace), &out); err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "--- telemetry ---\n%s\n--- trace sha256 ---\n%x\n", snap, sha256.Sum256(tr))
	return out.Bytes()
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

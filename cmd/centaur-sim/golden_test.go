package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
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

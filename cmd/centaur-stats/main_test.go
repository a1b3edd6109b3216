package main

import (
	"io"
	"strings"
	"testing"

	"centaur/internal/policy"
)

func TestParseTieBreak(t *testing.T) {
	tests := map[string]policy.TieBreakMode{
		"lowest-via":       policy.TieLowestVia,
		"hashed":           policy.TieHashed,
		"hashed-preferred": policy.TieHashedPreferred,
		"override":         policy.TieOverride,
	}
	for in, want := range tests {
		got, err := parseTieBreak(in)
		if err != nil || got != want {
			t.Errorf("parseTieBreak(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseTieBreak("bogus"); err == nil {
		t.Error("unknown mode must fail")
	}
}

// TestRunRejectsBadInvocations: a command line that cannot mean what it
// says fails with a message naming the problem (main turns the error
// into a non-zero exit) before any topology is generated.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "5", "-nodes", "200", "-sample", "-3"}, "-sample -3"},
		{[]string{"-ext", "multipath", "-sample", "-1"}, "-sample -1"},
		{[]string{"-fig", "5", "-tiebreak", "bogus"}, "bogus"},
		{[]string{"-nodes", "50"}, "is required"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunSampleBounds: zero still means every link and a positive count
// still samples, on a topology small enough to solve in milliseconds.
func TestRunSampleBounds(t *testing.T) {
	for _, sample := range []string{"0", "5"} {
		if err := run([]string{"-fig", "5", "-nodes", "40", "-sample", sample}, io.Discard); err != nil {
			t.Errorf("-sample %s: %v", sample, err)
		}
	}
}

package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("100, 200,300")
	if err != nil || len(got) != 3 || got[0] != 100 || got[2] != 300 {
		t.Fatalf("parseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "abc", "100,,200", "4"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

// TestRunRejectsBadInvocations: a command line that cannot mean what it
// says fails with a message naming the problem (main turns the error
// into a non-zero exit) before any simulation runs.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "6", "-nodes", "40", "-flips", "-1"}, "-flips -1"},
		{[]string{"-fig", "7", "-nodes", "40", "-workers", "-3"}, "-workers -3"},
		{[]string{"-fig", "6", "-nodes", "40", "-trials-per-net", "-2"}, "-trials-per-net -2"},
		{[]string{"-fig", "6", "-nodes", "40", "-flows", "-8"}, "-flows -8"},
		{[]string{"-rel", "-nodes", "40", "-crashes", "-1"}, "-crashes -1"},
		{[]string{"-adv", "-nodes", "40", "-trials", "-1"}, "-trials -1"},
		{[]string{"-fig", "6", "-nodes", "40", "-prov"}, "-prov requires -trace"},
		{[]string{"-fig", "9"}, "-fig {6,7,8} is required"},
		{[]string{"-nodes", "40"}, "-fig {6,7,8} is required"},
		{[]string{"-fig", "6", "-nodes", "1"}, "n=1"},
		{[]string{"-fig", "8", "-sizes", "40,x"}, "bad size"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunTinyFigure: zero counts keep their meaning (-workers 0 is
// GOMAXPROCS, -trials-per-net 0 one shared network) on a run small
// enough for a unit test.
func TestRunTinyFigure(t *testing.T) {
	if err := run([]string{"-fig", "7", "-nodes", "20", "-flips", "2", "-workers", "0", "-trials-per-net", "0"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

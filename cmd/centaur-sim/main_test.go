package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
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
	trace := filepath.Join(t.TempDir(), "f")
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
		{[]string{"-rel", "-nodes", "40", "-loss", "0,-0.1"}, `-loss: bad rate "-0.1"`},
		{[]string{"-adv", "-nodes", "40", "-adv-noise", "x"}, `-adv-noise: bad rate "x"`},
		{[]string{"-fig", "6", "-nodes", "40", "-prov"}, "-prov requires -trace"},
		{[]string{"-fig", "9"}, "-fig {6,7,8} is required"},
		{[]string{"-nodes", "40"}, "-fig {6,7,8} is required"},
		{[]string{"-fig", "6", "-nodes", "1"}, "n=1"},
		{[]string{"-fig", "8", "-sizes", "40,x"}, "bad size"},
		// A flag the selected mode does not read fails the run, naming
		// the flag and the mode.
		{[]string{"-fig", "8", "-sizes", "40", "-flows", "5"}, "-flows: -fig 8 does not read it"},
		{[]string{"-fig", "8", "-sizes", "40", "-detect-interval", "5ms"}, "-detect-interval: -fig 8 does not read it"},
		{[]string{"-fig", "7", "-nodes", "40", "-loss", "x"}, "-loss: -fig 7 does not read it"},
		{[]string{"-rel", "-nodes", "40", "-verify"}, "-verify: -rel does not read it"},
		{[]string{"-rel", "-nodes", "40", "-trials-per-net", "3"}, "-trials-per-net: -rel does not read it"},
		{[]string{"-scaling", "-sizes", "40", "-workers", "3"}, "-workers: -scaling does not read it"},
		{[]string{"-rel", "-adv", "-nodes", "40"}, "-adv: -rel does not read it"},
		{[]string{"-scaling", "-sizes", "40", "-trace", trace}, "-trace: -scaling does not read it"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
	// The rejected -scaling -trace run created no trace file.
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("rejected run left %s behind (stat: %v)", trace, err)
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

// TestEveryFlagIsRead: every flag centaur-sim declares, the shared ones
// included, is read by at least one mode, and every flag a mode lists
// is declared — so no flag can only ever be rejected.
func TestEveryFlagIsRead(t *testing.T) {
	declared, _ := newOptions(flag.ContinueOnError)
	for _, m := range modes {
		for _, name := range strings.Fields(m.reads) {
			if declared.Lookup(name) == nil {
				t.Errorf("%s reads undeclared flag -%s", m.name, name)
			}
		}
	}
	declared.VisitAll(func(f *flag.Flag) {
		for _, m := range modes {
			fs, o := newOptions(flag.ContinueOnError)
			if err := fs.Parse([]string{"-" + f.Name + "=" + f.DefValue}); err != nil {
				t.Fatal(err)
			}
			if o.Reject(m.name, strings.Fields(m.reads)) == nil {
				return
			}
		}
		t.Errorf("no mode reads -%s", f.Name)
	})
}

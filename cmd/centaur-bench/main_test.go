package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: a command line that cannot mean what it
// says fails with a message naming the problem (main turns the error
// into a non-zero exit) before any step runs or any report is written.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-workers", "-3"}, "-workers -3"},
		{[]string{"-quick", "-trials-per-net", "-2"}, "-trials-per-net -2"},
		{[]string{"-quick", "-crashes", "-1"}, "-crashes -1"},
		{[]string{"-quick", "-flows", "-8"}, "-flows -8"},
		{[]string{"-quick", "-scaling", "-scaling-max-nodes", "-1"}, "-scaling-max-nodes -1"},
		{[]string{"-quick", "-prov"}, "-prov requires -trace"},
		// A flag only an opt-in step reads fails the run without the step.
		{[]string{"-quick", "-pl-fp-rate", "0.1"}, "-pl-fp-rate: centaur-bench without -bloom-pl does not read it"},
		{[]string{"-quick", "-adv-seed", "7"}, "-adv-seed: centaur-bench without -adv does not read it"},
		{[]string{"-quick", "-scaling-max-nodes", "4000"}, "-scaling-max-nodes: centaur-bench without -scaling does not read it"},
		{[]string{"-quick", "-flows", "0", "-detect", "2ms"}, "-detect: centaur-bench without -flows above 0 does not read it"},
	} {
		err := run(append(tc.args, "-report", ""))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReportFile(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *reportFile) find(workload string, trace bool) *report {
	for i := range f.Runs {
		if f.Runs[i].Workload == workload && f.Runs[i].Trace == trace {
			return &f.Runs[i]
		}
	}
	return nil
}

// worsening is how far b is worse than a, as a share of a.
func worsening(s metricSpec, a, b float64) float64 {
	if s.Better == "higher" {
		a, b = b, a
	}
	return ratio(b-a, a)
}

// compareFiles prints one row per workload and end-to-end metric of two
// report files of the all-workloads driver, flags digests and exact
// counts that differ, and fails when b is worse than a by more than a
// metric's bound or fails operations a did not.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReportFile(pathA)
	if err != nil {
		return err
	}
	b, err := readReportFile(pathB)
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, wl := range workloads {
		ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-10s missing from one file\n", wl.Name)
			exceeded++
			continue
		}
		for _, s := range endToEnd {
			va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
			flag := ""
			if worsening(s, va, vb) > s.Bound {
				flag = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-10s %-14s %14.6f %14.6f %+8.2f%% %6.0f%%%s\n", wl.Name, s.Name, va, vb,
				100*ratio(vb-va, va), 100*s.Bound, flag)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-10s failed operations: %d of %d, then %d of %d  EXCEEDED\n", wl.Name,
				ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			exceeded++
		}
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "%-10s sim_digest differs: %s, then %s\n", wl.Name, ra.SimDigest, rb.SimDigest)
		}
		ta, tb := a.find(wl.Name, true), b.find(wl.Name, true)
		if ta == nil || tb == nil {
			continue
		}
		for _, s := range perLayer {
			if va, vb := ta.Metrics[s.Name].Value, tb.Metrics[s.Name].Value; s.Unit == "count" && va != vb {
				fmt.Fprintf(w, "%-10s count %s differs: %v, then %v\n", wl.Name, s.Name, va, vb)
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d bounds exceeded", exceeded)
	}
	return nil
}

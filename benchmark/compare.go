package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload and end-to-end metric, both runs'
// medians, the relative difference of B against A in the direction that
// is worse, and the metric's bound. It reports false when any difference
// exceeds its bound or either run has failed operations.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRunFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*report{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	ok := true
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		for _, r := range []*report{ra, rb} {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "%-15s FAILED: %d of %d operations failed in one run\n", r.Workload, r.Failed, r.Attempted)
				ok = false
			}
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

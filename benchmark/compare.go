package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges b against a for one metric by its bound, following the
// choosing-metrics guide: when the runs' own spread is wider than the bound
// the pair is unresolved, not unchanged.
func verdict(d metricDef, a, b summary) (rel float64, word string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	rel = b.Value/a.Value - 1
	worse := rel
	if d.Better == "higher" {
		worse = -rel
	}
	switch {
	case worse <= d.Bound:
		return rel, "ok"
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return rel, "unresolved"
	default:
		return rel, "regressed"
	}
}

func loadResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per workload and end-to-end metric and returns
// 1 if any regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-12s %-14s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a", "b", "b/a-1", "iqr a", "iqr b", "bound", "verdict")
	code := 0
	for _, spec := range workloads {
		ra, rb := a.Workloads[spec.name], b.Workloads[spec.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			rel, word := verdict(d, sa, sb)
			if word == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-14s %12.4g %12.4g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				spec.name, d.Name, sa.Value, sb.Value, 100*rel, 100*sa.spread(), 100*sb.spread(), 100*d.Bound, word)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(stdout, "%-12s failed %d -> %d  regressed\n", spec.name, ra.Failed, rb.Failed)
			code = 1
		}
	}
	return code
}

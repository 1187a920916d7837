package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compare prints, for every workload in both result files (as -out writes
// them), each end-to-end metric against the direction and bound that the
// benchmark description gives it, and each workload metric against the
// bound in workloadMetrics. Modelled rows are exact; host rows show their
// quartiles. It reports whether any metric got worse by more than its
// bound.
func compare(w io.Writer, specPath, oldPath, newPath string) (bool, error) {
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	defs := append(spec.EndToEnd, workloadMetrics...)
	var olds, news map[string]*result
	if err := readJSON(oldPath, &olds); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &news); err != nil {
		return false, err
	}
	names := make([]string, 0, len(news))
	for name := range news {
		names = append(names, name)
	}
	sort.Strings(names)

	regressed := false
	for _, name := range names {
		b := news[name]
		a, ok := olds[name]
		if !ok {
			fmt.Fprintf(w, "== %s: not in %s\n", name, oldPath)
			continue
		}
		fmt.Fprintf(w, "== %s (seed %d -> %d, %d -> %d passes)\n", name, a.Seed, b.Seed, a.Passes, b.Passes)
		fmt.Fprintf(w, "  %-20s %14s %14s %9s %8s  %-7s %s\n", "metric", "old", "new", "change", "bound", "verdict", "spread")
		for _, d := range defs {
			x, okA := a.Metrics[d.Name]
			y, okB := b.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			change, worse := judge(d, x.Value, y.Value)
			verdict := "ok"
			if worse {
				verdict = "REGRESSED"
				regressed = true
			}
			spread := "exact"
			if !x.Exact && x.Q1 != nil && y.Q1 != nil {
				spread = fmt.Sprintf("[%.4g, %.4g] -> [%.4g, %.4g]", *x.Q1, *x.Q3, *y.Q1, *y.Q3)
			} else if !x.Exact {
				spread = "single value"
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %9s %8s  %-7s %s\n",
				d.Name, x.Value, y.Value, change, boundText(d), verdict, spread)
		}
	}
	return regressed, nil
}

// judge returns a metric's change as text and whether it got worse than
// its bound allows.
func judge(d metric, old, cur float64) (string, bool) {
	delta := cur - old
	worse := (d.Better == "lower" && delta > 0) || (d.Better == "higher" && delta < 0)
	if d.Abs {
		return fmt.Sprintf("%+.4g", delta), worse && math.Abs(delta) > d.Bound
	}
	if old == 0 {
		return fmt.Sprintf("%+.4g", delta), worse
	}
	rel := delta / math.Abs(old)
	return fmt.Sprintf("%+.2f%%", 100*rel), worse && math.Abs(rel) > d.Bound
}

func boundText(d metric) string {
	switch {
	case d.Bound == 0:
		return "any"
	case d.Abs:
		return fmt.Sprintf("%g", d.Bound)
	}
	return fmt.Sprintf("%g%%", 100*d.Bound)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

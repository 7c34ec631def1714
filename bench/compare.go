package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictBetter     = "better"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b reads than a, as a share of a: positive
// when b is worse in the metric's direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// separated reports whether every value of xs reads better than every
// value of ys in the metric's direction.
func separated(d metricDef, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if worseBy(d, y, x) >= 0 {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}

// minPairs is the fewest run pairs a claim of "better" rests on.
const minPairs = 10

// verdict judges the change's runs against the parent's by the metric's
// bound. Runs pair by index. A change is better only when there are at
// least minPairs pairs, it wins at least nine of every ten (ties count
// for neither), and the medians differ by more than the parent's
// interquartile distance. It is worse when its median is worse than the
// parent's by more than the bound. Where the parent's own spread is
// wider than the bound, the metric is unresolved unless every change
// run reads better (or, for a regression, worse) than every parent run.
func verdict(d metricDef, parent, change []float64) string {
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if worseBy(d, parent[i], change[i]) < 0 {
			wins++
		}
	}
	noisy := spread(parent) > d.Bound
	rel := worseBy(d, pm, cm)
	switch {
	case rel > d.Bound:
		if noisy && !separated(d, parent, change) {
			return verdictUnresolved
		}
		return verdictWorse
	case pairs >= minPairs && rel < 0 && wins*10 >= pairs*9 && abs(cm-pm) > abs(pq3-pq1):
		return verdictBetter
	case noisy && !separated(d, change, parent):
		return verdictUnresolved
	}
	return verdictNoWorse
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readRuns loads an -out file.
func readRuns(path string) (runsFile, error) {
	var f runsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// byWorkload groups runs by workload, keeping run order, and returns
// the workloads in catalog order.
func byWorkload(runs []*runReport) (map[string][]*runReport, []string) {
	m := map[string][]*runReport{}
	for _, r := range runs {
		m[r.Workload] = append(m[r.Workload], r)
	}
	var names []string
	for _, w := range workloads {
		if len(m[w.Name]) > 0 {
			names = append(names, w.Name)
		}
	}
	return m, names
}

func values(runs []*runReport, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// runCompare prints, for each workload and end-to-end metric, both
// sides' median and quartiles and the verdict, then checks that exact
// counts and digests agree on every seed both sides ran. It fails when a
// count or digest differs.
func runCompare(w io.Writer, parentPath, changePath string) error {
	pf, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	cf, err := readRuns(changePath)
	if err != nil {
		return err
	}
	pw, names := byWorkload(pf.Runs)
	cw, _ := byWorkload(cf.Runs)
	fmt.Fprintf(w, "%-12s %-18s %-8s %28s %28s  %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "verdict (bound)")
	mismatches := 0
	for _, name := range names {
		p, c := pw[name], cw[name]
		if len(c) == 0 {
			fmt.Fprintf(w, "%-12s missing from %s\n", name, changePath)
			continue
		}
		for _, d := range endToEnd {
			pv, cv := values(p, d.Name), values(c, d.Name)
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-12s %-18s %-8s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g]  %s (%.0f%%)\n",
				name, d.Name, d.Unit, pm, pq1, pq3, cm, cq1, cq3, verdict(d, pv, cv), 100*d.Bound)
		}
		bySeed := map[int64]*childOut{}
		for _, r := range c {
			bySeed[r.Seed] = r.Child
		}
		for _, r := range p {
			cc := bySeed[r.Seed]
			if cc == nil {
				continue
			}
			for k, v := range r.Child.Counts {
				if cc.Counts[k] != v {
					mismatches++
					fmt.Fprintf(w, "%-12s seed %d count %s: parent %d, change %d\n", name, r.Seed, k, v, cc.Counts[k])
				}
			}
			for k, v := range r.Child.Digests {
				if cc.Digests[k] != v {
					mismatches++
					fmt.Fprintf(w, "%-12s seed %d digest %s: parent %s, change %s\n", name, r.Seed, k, v, cc.Digests[k])
				}
			}
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d exact counts or digests differ", mismatches)
	}
	return nil
}

// printSpreads prints each workload's end-to-end metrics over repeated
// runs: median, quartiles, and the spread (interquartile distance over
// median) against the metric's bound. A spread above a third of the
// bound is flagged: the benchmark cannot then resolve a regression of
// the bound's size reliably.
func printSpreads(w io.Writer, runs []*runReport) {
	byW, names := byWorkload(runs)
	fmt.Fprintf(w, "%-12s %-18s %-8s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "unit", "n", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v := values(byW[name], d.Name)
			q1, m, q3 := quartiles(v)
			s := spread(v)
			flag := ""
			if s > d.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Fprintf(w, "%-12s %-18s %-8s %4d %12.5g %12.5g %12.5g %7.2f%% %6.0f%%%s\n",
				name, d.Name, d.Unit, len(v), m, q1, q3, 100*s, 100*d.Bound, flag)
		}
	}
}

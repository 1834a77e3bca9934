package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// loadRuns decodes every results.json document in a file; the documents may
// simply be concatenated (cat run*/results.json > parent.json).
func loadRuns(path string) ([]runResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResults
	dec := json.NewDecoder(f)
	for {
		var r runResults
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("bench: %s: run %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("bench: %s holds no runs", path)
	}
	return runs, nil
}

// values collects one end-to-end metric of one workload across runs, in
// run order.
func values(runs []runResults, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// judge applies the paired rule: the change is better only when it wins at
// least nine tenths of the pairs (ties count for neither) and its median
// differs from the parent's by more than the parent's interquartile range;
// it is worse when its median is worse than the parent's by more than the
// metric's bound. Otherwise it is unchanged, or unresolved when the
// parent's own spread is wider than the bound, unless every run of the
// change reads better than every run of the parent. Pairs are formed in run
// order.
func judge(m metricSpec, parent, change []float64) (verdict string, delta float64) {
	n := min(len(parent), len(change))
	if n < 2 {
		return "unresolved", 0
	}
	parent, change = parent[:n], change[:n]
	better := func(x, y float64) bool {
		if m.higherIsBetter() {
			return x > y
		}
		return x < y
	}
	q, medC := quartiles(parent), median(change)
	medP, iqr := q[1], q[2]-q[0]
	if medP == 0 {
		return "unresolved", 0
	}
	delta = (medC - medP) / medP
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	worseBy := delta
	if m.higherIsBetter() {
		worseBy = -delta
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case wins*10 >= 9*n && better(medC, medP) && math.Abs(medC-medP) > iqr:
		return "better", delta
	case worseBy > m.Bound:
		return "worse", delta
	case iqr/medP > m.Bound && !allBetter:
		return "unresolved", delta
	}
	return "unchanged", delta
}

// compare prints one row per workload with a verdict for each end-to-end
// metric of the spec. It returns 1 when any metric got worse.
func compare(w, stderr io.Writer, sp *spec, parentPath, changePath string) int {
	parent, err := loadRuns(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	change, err := loadRuns(changePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(w, "parent %s: %d runs; change %s: %d runs; pairs in run order\n",
		parentPath, len(parent), changePath, len(change))
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, "  %-22s", m.Name)
	}
	fmt.Fprintln(w)
	code := 0
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, "%-16s", wl.Name)
		for _, m := range sp.EndToEnd {
			v, d := judge(m, values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name))
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "  %-22s", fmt.Sprintf("%s %+.1f%%", v, 100*d))
		}
		fmt.Fprintln(w)
	}
	return code
}

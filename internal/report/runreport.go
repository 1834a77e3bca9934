package report

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recorder"
)

// RunReport is the per-application-run digest the paper's published
// artifact ships alongside each trace: function counters, I/O sizes,
// per-file access and conflict summaries.
type RunReport struct {
	Config  string
	Ranks   int
	Records int

	// FuncCounts tallies every traced call by layer and function.
	FuncCounts map[recorder.Layer]map[recorder.Func]int
	// BytesRead/BytesWritten are POSIX-layer data totals.
	BytesRead, BytesWritten int64
	// SizeHistogram buckets POSIX data accesses by power-of-two size
	// (bucket [2^k, 2^(k+1)); zero-length accesses get a dedicated bucket).
	SizeHistogram *obs.Histogram
	Files         []FileReport
}

// FileReport summarizes one file.
type FileReport struct {
	Path             string
	Reads, Writes    int
	BytesRead        int64
	BytesWritten     int64
	Ranks            int
	SessionConflicts int
	CommitConflicts  int
}

// BuildRunReportFrom computes tr's digest from pre-extracted accesses (fas
// is read, never mutated) and the call counters of a fresh scan of tr (see
// core.ScanTraceCtx). It is the digest only: the per-file conflict columns
// stay zero here, and semfs fills them from its one conflict sweep.
func BuildRunReportFrom(tr *recorder.Trace, fas []*core.FileAccesses) *RunReport {
	// Only cancellation ends a scan early, and nothing cancels this one.
	sc, _ := core.ScanTraceCtx(context.TODO(), tr, 1)
	return buildRunReport(tr.Meta, sc, fas)
}

// RunReportOf computes the digest of a scanned trace (see
// BuildRunReportFrom). The report shares sc's call counters, read-only,
// and its Files index-match sc.Files (both are in path order).
func RunReportOf(meta recorder.Meta, sc *core.Scan) *RunReport {
	return buildRunReport(meta, sc, sc.Files)
}

func buildRunReport(meta recorder.Meta, sc *core.Scan, fas []*core.FileAccesses) *RunReport {
	rep := &RunReport{
		Config:        meta.ConfigName(),
		Ranks:         meta.Ranks,
		Records:       sc.Records,
		FuncCounts:    sc.Calls,
		SizeHistogram: obs.NewHistogram(),
	}
	rep.Files = make([]FileReport, 0, len(fas))
	for _, fa := range fas {
		fr := FileReport{Path: fa.Path, Ranks: distinctRanks(fa.Intervals)}
		for _, iv := range fa.Intervals {
			n := iv.Oe - iv.Os
			if iv.Write {
				fr.Writes++
				fr.BytesWritten += n
				rep.BytesWritten += n
			} else {
				fr.Reads++
				fr.BytesRead += n
				rep.BytesRead += n
			}
			rep.SizeHistogram.Observe(n)
		}
		rep.Files = append(rep.Files, fr)
	}
	slices.SortFunc(rep.Files, func(a, b FileReport) int { return strings.Compare(a.Path, b.Path) })
	return rep
}

// distinctRanks counts the ranks among ivs. Extraction keeps each rank's
// intervals contiguous, ranks ascending (see core.FileAccesses), so that
// is one per rank run; intervals in any other order are counted through a
// sorted copy of their ranks.
func distinctRanks(ivs []core.Interval) int {
	n := 0
	for i := range ivs {
		switch {
		case i == 0 || ivs[i].Rank > ivs[i-1].Rank:
			n++
		case ivs[i].Rank < ivs[i-1].Rank:
			ranks := make([]int32, len(ivs))
			for k := range ivs {
				ranks[k] = ivs[k].Rank
			}
			slices.Sort(ranks)
			return len(slices.Compact(ranks))
		}
	}
	return n
}

// Render formats the report for terminals.
func (r *RunReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run report: %s (%d ranks, %d trace records)\n\n", r.Config, r.Ranks, r.Records)
	fmt.Fprintf(&b, "Data volume: %s written, %s read\n\n", human(r.BytesWritten), human(r.BytesRead))

	b.WriteString("Function counters by layer:\n")
	layers := make([]recorder.Layer, 0, len(r.FuncCounts))
	for l := range r.FuncCounts {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })
	for _, l := range layers {
		fns := make([]recorder.Func, 0, len(r.FuncCounts[l]))
		for f := range r.FuncCounts[l] {
			fns = append(fns, f)
		}
		sort.Slice(fns, func(i, j int) bool {
			ci, cj := r.FuncCounts[l][fns[i]], r.FuncCounts[l][fns[j]]
			if ci != cj {
				return ci > cj
			}
			return fns[i].String() < fns[j].String() // total order: ties came from a map
		})
		fmt.Fprintf(&b, "  [%s]", l)
		for _, f := range fns {
			fmt.Fprintf(&b, " %s:%d", f, r.FuncCounts[l][f])
		}
		b.WriteString("\n")
	}

	b.WriteString("\nAccess-size histogram (POSIX data ops):\n")
	hs := r.SizeHistogram.Snapshot()
	if hs.Zero > 0 {
		fmt.Fprintf(&b, "  %18s  %d\n", "zero-length", hs.Zero)
	}
	for _, bk := range hs.Buckets { // occupied buckets, ascending
		fmt.Fprintf(&b, "  [%7s, %7s)  %d\n", human(bk.Lo), human(bk.Hi), bk.N)
	}

	b.WriteString("\nPer-file summary (top 20 by traffic):\n")
	files := append([]FileReport(nil), r.Files...)
	sort.Slice(files, func(i, j int) bool {
		ti := files[i].BytesWritten + files[i].BytesRead
		tj := files[j].BytesWritten + files[j].BytesRead
		if ti != tj {
			return ti > tj
		}
		return files[i].Path < files[j].Path // sort.Slice is unstable; keep ties total
	})
	if len(files) > 20 {
		files = files[:20]
	}
	fmt.Fprintf(&b, "  %-34s %6s %6s %9s %9s %5s %8s %8s\n",
		"path", "reads", "writes", "rd bytes", "wr bytes", "ranks", "conf(se)", "conf(co)")
	for _, f := range files {
		fmt.Fprintf(&b, "  %-34s %6d %6d %9s %9s %5d %8d %8d\n",
			trunc(f.Path, 34), f.Reads, f.Writes, human(f.BytesRead), human(f.BytesWritten),
			f.Ranks, f.SessionConflicts, f.CommitConflicts)
	}
	if extra := len(r.Files) - len(files); extra > 0 {
		fmt.Fprintf(&b, "  ... %d more files\n", extra)
	}
	return b.String()
}

func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

// Package report renders the analysis results in the shape of the paper's
// tables and figures: aligned text tables for terminals and CSV series for
// plotting. One renderer exists per table/figure of the evaluation section.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// Table1 renders the PFS ↔ consistency-semantics categorization.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: HPC file systems and their consistency semantics\n\n")
	groups := map[pfs.Semantics][]string{}
	for _, s := range pfs.Registry() {
		groups[s.Semantics] = append(groups[s.Semantics], s.Name)
	}
	rows := [][2]string{}
	for _, sem := range pfs.AllSemantics() {
		rows = append(rows, [2]string{titleCase(sem.String()) + " Consistency", strings.Join(groups[sem], ", ")})
	}
	writeTable(&b, []string{"Consistency Semantics", "File Systems"}, rows)
	return b.String()
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Table3Row is one application configuration's high-level patterns.
type Table3Row struct {
	Config   string
	Patterns []core.HighLevelPattern
}

// Table3 renders the X-Y × layout matrix with application names in the
// cells, as the paper formats it.
func Table3(rows []Table3Row) string {
	layouts := []core.Layout{core.LayoutConsecutive, core.LayoutStrided, core.LayoutStridedCyclic}
	xys := []string{"N-N", "N-M", "N-1", "M-M", "M-1", "1-1"}
	cell := map[string]map[core.Layout][]string{}
	for _, xy := range xys {
		cell[xy] = map[core.Layout][]string{}
	}
	for _, r := range rows {
		for _, p := range r.Patterns {
			xy := p.X.String() + "-" + p.Y.String()
			if _, ok := cell[xy]; !ok {
				continue
			}
			if p.Layout > core.LayoutStridedCyclic {
				continue
			}
			cell[xy][p.Layout] = appendUnique(cell[xy][p.Layout], r.Config)
		}
	}
	var b strings.Builder
	b.WriteString("Table 3: High-level access patterns of applications studied\n\n")
	header := []string{"", "Consecutive", "Strided", "Strided Cyclic"}
	var trows [][]string
	for _, xy := range xys {
		row := []string{xy}
		for _, l := range layouts {
			row = append(row, strings.Join(cell[xy][l], ", "))
		}
		trows = append(trows, row)
	}
	writeWideTable(&b, header, trows)
	return b.String()
}

func appendUnique(list []string, s string) []string {
	for _, v := range list {
		if v == s {
			return list
		}
	}
	return append(list, s)
}

// Table4Row is one configuration's conflict signatures.
type Table4Row struct {
	Config  string
	Library string
	Session core.ConflictSignature
	Commit  core.ConflictSignature
}

// Table4 renders the conflicts-under-session-semantics table with the
// paper's check-mark layout, plus the commit-semantics comparison column.
func Table4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Conflicts with session semantics ('S' same process, 'D' distinct processes)\n\n")
	header := []string{"Application", "I/O Library", "WAW-S", "WAW-D", "RAW-S", "RAW-D", "commit differs?"}
	var trows [][]string
	mark := func(v bool) string {
		if v {
			return "x"
		}
		return ""
	}
	for _, r := range rows {
		diff := ""
		if r.Session != r.Commit {
			diff = "yes (conflicts disappear)"
		}
		trows = append(trows, []string{
			r.Config, r.Library,
			mark(r.Session.WAWSame), mark(r.Session.WAWDiff),
			mark(r.Session.RAWSame), mark(r.Session.RAWDiff),
			diff,
		})
	}
	writeWideTable(&b, header, trows)
	return b.String()
}

// Table5 renders the application/configuration inventory.
func Table5(rows [][2]string) string {
	var b strings.Builder
	b.WriteString("Table 5: Applications and configurations\n\n")
	writeTable(&b, []string{"Configuration", "Description"}, rows)
	return b.String()
}

// Figure1Row is one bar of Figure 1: a configuration's pattern mix.
type Figure1Row struct {
	Config string
	Global core.PatternMix
	Local  core.PatternMix
}

// Figure1 renders the global/local access-pattern mixes as text bars.
func Figure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: Overview of low-level access patterns (% consecutive/monotonic/random)\n\n")
	b.WriteString("(a) Global pattern from the perspective of the PFS\n")
	for _, r := range rows {
		writeBar(&b, r.Config, r.Global)
	}
	b.WriteString("\n(b) Local pattern from the perspective of individual processes\n")
	for _, r := range rows {
		writeBar(&b, r.Config, r.Local)
	}
	return b.String()
}

// Figure1CSV emits the mixes as CSV (config, level, consecutive, monotonic,
// random).
func Figure1CSV(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("config,level,consecutive_pct,monotonic_pct,random_pct\n")
	for _, r := range rows {
		gc, gm, gr := r.Global.Pct()
		lc, lm, lr := r.Local.Pct()
		fmt.Fprintf(&b, "%s,global,%.1f,%.1f,%.1f\n", r.Config, gc, gm, gr)
		fmt.Fprintf(&b, "%s,local,%.1f,%.1f,%.1f\n", r.Config, lc, lm, lr)
	}
	return b.String()
}

func writeBar(b *strings.Builder, label string, m core.PatternMix) {
	c, mo, r := m.Pct()
	const width = 40
	nc := int(c * width / 100)
	nm := int(mo * width / 100)
	nr := width - nc - nm
	if nr < 0 {
		nr = 0
	}
	fmt.Fprintf(b, "  %-22s |%s%s%s| c=%5.1f%% m=%5.1f%% r=%5.1f%%\n",
		label,
		strings.Repeat("#", nc), strings.Repeat("=", nm), strings.Repeat(".", nr),
		c, mo, r)
}

// Figure2CSV emits the FLASH access-over-time scatter data of Figure 2 for
// the write operations of one file: time_us, rank, offset, bytes. The
// separate checkpoint/plot files and fbs/nofbs variants give the six panels.
// Extraction goes through the process-wide cache.
func Figure2CSV(tr *recorder.Trace, path string) string {
	return Figure2CSVOf(extractShared(tr), path)
}

// Figure2CSVOf is Figure2CSV over pre-extracted accesses.
func Figure2CSVOf(fas []*core.FileAccesses, path string) string {
	var b strings.Builder
	b.WriteString("time_us,rank,offset,bytes\n")
	type row struct {
		t           uint64
		rank        int32
		off, nbytes int64
	}
	var rows []row
	for _, fa := range fas {
		if fa.Path != path {
			continue
		}
		for _, iv := range fa.Intervals {
			if !iv.Write {
				continue
			}
			rows = append(rows, row{iv.T, iv.Rank, iv.Os, iv.Oe - iv.Os})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	for _, r := range rows {
		fmt.Fprintf(&b, "%.1f,%d,%d,%d\n", float64(r.t)/1000, r.rank, r.off, r.nbytes)
	}
	return b.String()
}

// Figure3Row is one configuration's metadata census.
type Figure3Row struct {
	Config string
	Census *core.Census
}

// Figure3 renders the metadata-operations matrix: configurations × POSIX
// metadata operations, each cell naming the layer(s) that issued the call
// (A=application, H=HDF5, M=MPI library, N=NetCDF, D=ADIOS, S=Silo).
func Figure3(rows []Figure3Row) string {
	funcSet := map[recorder.Func]bool{}
	for _, r := range rows {
		for _, f := range r.Census.Funcs() {
			funcSet[f] = true
		}
	}
	funcs := make([]recorder.Func, 0, len(funcSet))
	for f := range funcSet {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].String() < funcs[j].String() })

	var b strings.Builder
	b.WriteString("Figure 3: Metadata operations used by applications\n")
	b.WriteString("(cells: A=app, H=HDF5, M=MPI library, N=NetCDF, D=ADIOS, S=Silo)\n\n")
	header := []string{"Configuration"}
	for _, f := range funcs {
		header = append(header, f.String())
	}
	var trows [][]string
	for _, r := range rows {
		row := []string{r.Config}
		for _, f := range funcs {
			row = append(row, originLetters(r.Census, f))
		}
		trows = append(trows, row)
	}
	writeWideTable(&b, header, trows)
	return b.String()
}

func originLetters(c *core.Census, f recorder.Func) string {
	letters := map[string]string{
		"App": "A", "HDF5": "H", "MPI": "M", "NetCDF": "N", "ADIOS": "D", "Silo": "S",
	}
	var out []string
	for _, origin := range c.Origins() {
		if c.Counts[origin][f] > 0 {
			out = append(out, letters[origin])
		}
	}
	return strings.Join(out, "")
}

// Verdicts renders the per-application bottom line of §6.3.
func Verdicts(rows []struct {
	Config  string
	Verdict core.Verdict
}) string {
	var b strings.Builder
	b.WriteString("Consistency-semantics verdicts (§6.3)\n\n")
	header := []string{"Configuration", "weakest sufficient model", "needs per-process ordering"}
	var trows [][]string
	for _, r := range rows {
		ppo := ""
		if r.Verdict.NeedsPerProcessOrdering {
			ppo = "yes (unsafe on BurstFS)"
		}
		trows = append(trows, []string{r.Config, r.Verdict.Weakest.String(), ppo})
	}
	writeWideTable(&b, header, trows)
	return b.String()
}

// writeTable renders a two-column aligned table.
func writeTable(b *strings.Builder, header []string, rows [][2]string) {
	wide := make([][]string, len(rows))
	for i, r := range rows {
		wide[i] = []string{r[0], r[1]}
	}
	writeWideTable(b, header, wide)
}

// writeWideTable renders an n-column aligned table with a separator line.
func writeWideTable(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range rows {
		line(r)
	}
}

// Command calib is the benchmark's calibration job, a fixed yardstick of
// host speed. It is a deterministic job of about 0.4 s shaped like the two
// halves of an analysis: vector clocks over a graph of events kept in maps
// of slices, as happens-before reconstruction does, then records grouped by
// file path, sorted by offset and swept for overlaps, with a formatted line
// per file, as ingest and conflict detection do. It depends on nothing in
// the repository, so no change to the program under test can change its
// cost; only the host can. The benchmark runs it after every measured
// iteration and scales that iteration's times by how fast it ran.
package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
)

// xorshift64: the same inputs on every host.
var state uint64 = 88172645463325252

func next() uint64 {
	state ^= state << 13
	state ^= state >> 7
	state ^= state << 17
	return state
}

func main() {
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, clocks())
	sweep(w)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type node struct{ rank, idx int }

// clocks computes a vector clock per event of 96 ranks x 600 events, where
// every sixth event joins all ranks, and returns a checksum of them.
func clocks() int64 {
	const ranks, events, collEvery = 96, 600, 6
	stamps := make([][]uint64, ranks)
	for r := range stamps {
		stamps[r] = make([]uint64, events)
		for i := range stamps[r] {
			stamps[r][i] = uint64(i)*1000 + next()%1000
		}
	}
	preds := map[node][]node{}
	for r := 0; r < ranks; r++ {
		for i := 1; i < events; i++ {
			preds[node{r, i}] = append(preds[node{r, i}], node{r, i - 1})
		}
	}
	for i := 1; i < events; i += collEvery {
		for a := 0; a < ranks; a++ {
			for b := 0; b < ranks; b++ {
				if a != b {
					preds[node{b, i}] = append(preds[node{b, i}], node{a, i - 1})
				}
			}
		}
	}
	order := make([]node, 0, ranks*events)
	for r := 0; r < ranks; r++ {
		for i := 0; i < events; i++ {
			order = append(order, node{r, i})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if na.idx != nb.idx {
			return na.idx < nb.idx
		}
		return stamps[na.rank][na.idx] < stamps[nb.rank][nb.idx]
	})
	vcs := make([][][]int32, ranks)
	for r := range vcs {
		vcs[r] = make([][]int32, events)
	}
	var sum int64
	for _, n := range order {
		vc := make([]int32, ranks)
		for _, p := range preds[n] {
			for k, v := range vcs[p.rank][p.idx] {
				vc[k] = max(vc[k], v)
			}
		}
		vc[n.rank] = int32(n.idx + 1)
		vcs[n.rank][n.idx] = vc
		sum += int64(vc[(n.rank+1)%ranks])
	}
	return sum
}

type access struct {
	path     int32
	off, len int64
	seq      int
}

// sweep groups 500,000 accesses by 20,000 file paths, sorts each file's
// accesses by offset, counts the ones overlapping an earlier one, and
// prints a line per file and the total.
func sweep(w *bufio.Writer) {
	const n, paths = 500_000, 20_000
	names := make([]string, paths)
	for i := range names {
		names[i] = "/pfs/run/out/file-" + strconv.Itoa(i) + ".h5"
	}
	byPath := map[string][]access{}
	for i := 0; i < n; i++ {
		a := access{path: int32(next() % paths), off: int64(next()%4096) * 512, len: int64(next()%64+1) * 64, seq: i}
		byPath[names[a.path]] = append(byPath[names[a.path]], a)
	}
	keys := make([]string, 0, len(byPath))
	for k := range byPath {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	overlaps := 0
	for _, k := range keys {
		as := byPath[k]
		slices.SortFunc(as, func(a, b access) int {
			if a.off != b.off {
				return int(a.off - b.off)
			}
			return a.seq - b.seq
		})
		end := int64(-1)
		for _, a := range as {
			if a.off < end {
				overlaps++
			}
			end = max(end, a.off+a.len)
		}
		fmt.Fprintf(w, "%s %d %d\n", k, len(as), overlaps)
	}
	fmt.Fprintln(w, overlaps)
}

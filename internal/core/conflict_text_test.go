package core

import (
	"fmt"
	"math"
	"testing"
)

// conflictTextOracle is the Sprintf form Conflict.AppendText replaced; the
// CLI's conflict listings must not move by a byte.
func conflictTextOracle(c Conflict) string {
	sd := "D"
	if c.SameProcess {
		sd = "S"
	}
	return fmt.Sprintf("%s-%s %s [%d,%d)@r%d t=%d -> [%d,%d)@r%d t=%d",
		c.Kind, sd, c.Path,
		c.First.Os, c.First.Oe, c.First.Rank, c.First.T,
		c.Second.Os, c.Second.Oe, c.Second.Rank, c.Second.T)
}

func conflictTextCases() []Conflict {
	return []Conflict{
		{Path: "/out/chk.0001", Kind: RAW, First: Interval{Os: 0, Oe: 4096, Rank: 3, T: 120}, Second: Interval{Os: 1024, Oe: 2048, Rank: 7, T: 900}},
		{Path: "/md.trj", Kind: WAW, SameProcess: true, First: Interval{Os: 10, Oe: 20, Rank: 0, T: 0}, Second: Interval{Os: 15, Oe: 30, Rank: 0, T: 1}},
		{Path: "/neg", Kind: WAW, First: Interval{Os: -4096, Oe: -1, Rank: 1, T: 5}, Second: Interval{Os: math.MinInt64, Oe: math.MaxInt64, Rank: 2, T: 6}},
		{Path: "/max", Kind: RAW, SameProcess: true, First: Interval{Os: 1, Oe: 2, Rank: math.MaxInt32, T: math.MaxUint64}, Second: Interval{Os: 1, Oe: 2, Rank: math.MinInt32, T: math.MaxUint64}},
		{Path: "", Kind: RAW},
		{Path: "/dir with space/ü", Kind: WAW, First: Interval{Oe: 1, Rank: 0, T: 1}, Second: Interval{Oe: 1, Rank: 0, T: NoTime}},
	}
}

// TestConflictAppendTextMatchesSprintf: AppendText reproduces the old
// Sprintf format, appends to a non-empty buffer without touching its
// prefix, and String is AppendText's bytes.
func TestConflictAppendTextMatchesSprintf(t *testing.T) {
	for _, c := range conflictTextCases() {
		want := conflictTextOracle(c)
		if got := string(c.AppendText(nil)); got != want {
			t.Errorf("AppendText(nil)\n got  %q\n want %q", got, want)
		}
		if got := string(c.AppendText([]byte("  "))); got != "  "+want {
			t.Errorf("AppendText(prefix)\n got  %q\n want %q", got, "  "+want)
		}
		if got := c.String(); got != string(c.AppendText(nil)) {
			t.Errorf("String() = %q, AppendText = %q", got, c.AppendText(nil))
		}
	}
}

// FuzzConflictText checks AppendText against the Sprintf form over
// arbitrary field values, seeded with TestConflictAppendTextMatchesSprintf's
// table.
func FuzzConflictText(f *testing.F) {
	for _, c := range conflictTextCases() {
		f.Add(c.Path, c.Kind == WAW, c.SameProcess,
			c.First.Os, c.First.Oe, c.First.Rank, c.First.T,
			c.Second.Os, c.Second.Oe, c.Second.Rank, c.Second.T)
	}
	f.Fuzz(func(t *testing.T, path string, waw, same bool,
		os1, oe1 int64, r1 int32, t1 uint64, os2, oe2 int64, r2 int32, t2 uint64) {
		c := Conflict{Path: path, Kind: RAW, SameProcess: same,
			First:  Interval{Os: os1, Oe: oe1, Rank: r1, T: t1},
			Second: Interval{Os: os2, Oe: oe2, Rank: r2, T: t2}}
		if waw {
			c.Kind = WAW
		}
		if got, want := string(c.AppendText(nil)), conflictTextOracle(c); got != want {
			t.Fatalf("AppendText\n got  %q\n want %q", got, want)
		}
	})
}

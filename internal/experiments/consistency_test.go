package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pfs"
)

func TestConsistencyComparison(t *testing.T) {
	names := []string{"GTC", "FLASH-fbs"}
	cells, err := ConsistencyComparison(context.Background(), TestScale(), names)
	if err != nil {
		t.Fatalf("ConsistencyComparison: %v", err)
	}
	if len(cells) != len(names)*len(pfs.AllSemantics()) {
		t.Fatalf("got %d cells, want %d", len(cells), len(names)*len(pfs.AllSemantics()))
	}
	byConfig := map[string]int{}
	for _, c := range cells {
		byConfig[c.Config]++
		// The tentpole guarantee surfaced end-to-end: every real
		// application run is certified by its model's formal spec.
		if !c.Accepted {
			t.Errorf("%s under %v rejected by its own spec: clause %s",
				c.Config, c.Semantics, c.Clause)
		}
		if c.Events == 0 {
			t.Errorf("%s under %v recorded no history", c.Config, c.Semantics)
		}
		if c.ElapsedNS == 0 {
			t.Errorf("%s under %v has zero elapsed time", c.Config, c.Semantics)
		}
		// Only strong semantics pays lock round trips.
		if c.Semantics == pfs.Strong && c.LockAcquires == 0 {
			t.Errorf("%s under strong acquired no locks", c.Config)
		}
		if c.Semantics != pfs.Strong && c.LockAcquires != 0 {
			t.Errorf("%s under %v acquired %d locks, want 0",
				c.Config, c.Semantics, c.LockAcquires)
		}
	}
	for _, n := range names {
		if byConfig[n] != len(pfs.AllSemantics()) {
			t.Errorf("config %s has %d cells, want %d", n, byConfig[n], len(pfs.AllSemantics()))
		}
	}

	table := ConsistencyTable(cells)
	for _, want := range []string{"configuration", "semantics", "lock acqs", "spec",
		"GTC", "FLASH-fbs", "strong", "eventual", "ok"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "REJECTED") {
		t.Errorf("table contains rejected cells:\n%s", table)
	}
}

func TestConsistencyComparisonUnknownConfig(t *testing.T) {
	if _, err := ConsistencyComparison(context.Background(), TestScale(), []string{"nope"}); err == nil {
		t.Fatal("unknown configuration should error")
	}
}

func TestConsistencyComparisonCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells, err := ConsistencyComparison(ctx, TestScale(), []string{"GTC"})
	if err == nil {
		t.Fatal("cancelled context should error")
	}
	if len(cells) != 0 {
		t.Fatalf("cancelled run produced %d cells", len(cells))
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(100, 0)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %d, want 100", got)
	}
	if got := c.Advance(50); got != 150 {
		t.Fatalf("Advance returned %d, want 150", got)
	}
	if got := c.Now(); got != 150 {
		t.Fatalf("Now() after advance = %d, want 150", got)
	}
}

func TestClockMergeAtLeast(t *testing.T) {
	c := NewClock(100, 0)
	c.MergeAtLeast(50) // must not go backwards
	if c.Now() != 100 {
		t.Fatalf("MergeAtLeast moved clock backwards to %d", c.Now())
	}
	c.MergeAtLeast(200)
	if c.Now() != 200 {
		t.Fatalf("MergeAtLeast(200) -> %d, want 200", c.Now())
	}
}

func TestClockStampAppliesSkew(t *testing.T) {
	c := NewClock(1000, -300)
	if got := c.Stamp(); got != 700 {
		t.Fatalf("Stamp() = %d, want 700", got)
	}
	if got := c.Now(); got != 1000 {
		t.Fatalf("Now() must not include skew, got %d", got)
	}
	// Negative stamps clamp to zero rather than wrapping.
	c2 := NewClock(100, -500)
	if got := c2.Stamp(); got != 0 {
		t.Fatalf("negative stamp should clamp to 0, got %d", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock(0, 0)
		prev := c.Now()
		for _, s := range steps {
			c.Advance(uint64(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyNodeMapping(t *testing.T) {
	top := NewTopology(64, 8)
	if got := top.Nodes(); got != 8 {
		t.Fatalf("Nodes() = %d, want 8", got)
	}
	if got := top.NodeOf(0); got != 0 {
		t.Fatalf("NodeOf(0) = %d, want 0", got)
	}
	if got := top.NodeOf(63); got != 7 {
		t.Fatalf("NodeOf(63) = %d, want 7", got)
	}
	if !top.SameNode(8, 15) {
		t.Fatal("ranks 8 and 15 should share node 1")
	}
	if top.SameNode(7, 8) {
		t.Fatal("ranks 7 and 8 should be on different nodes")
	}
}

func TestTopologyPartialLastNode(t *testing.T) {
	top := NewTopology(10, 4)
	if got := top.Nodes(); got != 3 {
		t.Fatalf("Nodes() = %d, want 3", got)
	}
	got := top.RanksOnNode(2)
	want := []int{8, 9}
	if len(got) != len(want) {
		t.Fatalf("RanksOnNode(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RanksOnNode(2) = %v, want %v", got, want)
		}
	}
}

func TestTopologyPanicsOnBadRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NodeOf out-of-range rank should panic")
		}
	}()
	NewTopology(4, 2).NodeOf(4)
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d/64 equal draws", same)
	}
	// Splitting must not perturb the parent.
	r1 := NewRNG(7)
	r2 := NewRNG(7)
	_ = r1.Split(9)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Split must not consume parent state")
	}
}

func TestRNGBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if v := r.int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n(7) = %d out of range", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
		if v := r.SkewNS(10_000); v < -10_000 || v > 10_000 {
			t.Fatalf("SkewNS out of range: %d", v)
		}
	}
	if v := NewRNG(1).SkewNS(0); v != 0 {
		t.Fatalf("SkewNS(0) = %d, want 0", v)
	}
}

func TestCostModel(t *testing.T) {
	if IOCost(0) != ioBase {
		t.Fatalf("IOCost(0) = %d, want base %d", IOCost(0), ioBase)
	}
	if IOCost(-5) != ioBase {
		t.Fatal("negative sizes must clamp to zero bytes")
	}
	if got := IOCost(1000); got != ioBase+1000*ioPerByte {
		t.Fatalf("IOCost(1000) = %d", got)
	}
	if got := MsgCost(100); got != MsgLatency+100*msgPerByte {
		t.Fatalf("MsgCost(100) = %d", got)
	}
}

package consistency

import (
	"math/rand"
	"testing"

	"repro/internal/pfs"
	"repro/internal/pfs/pfstest"
)

// Mutation testing for the checker: each mutant is a deliberately weakened
// implementation of a consistency model — a real pfs configuration whose
// behavior is exactly "model X minus one clause" — and the spec for X must
// reject its histories with a counterexample naming the missing clause.
//
//	commit-without-pending-isolation:  a pfs that publishes at write time
//	    (Strong) pretending to be Commit — remote readers see uncommitted
//	    data.
//	strong-without-immediate-visibility: a pfs that buffers until close
//	    (Session) pretending to be Strong — writes are not readable at once.
//	session-without-close-visibility:  a pfs that publishes at fsync
//	    (Commit) pretending to be Session — data appears inside an open
//	    session without a close-to-open boundary.
//	eventual-with-unbounded-staleness: an Eventual pfs whose propagation
//	    delay exceeds the spec's bound — reads stay stale past the
//	    guarantee.
//	unordered-same-process:            pfs's BurstFS mode, which breaks
//	    program order among one process's own buffered writes.
type mutant struct {
	name   string
	impl   pfs.Options // the weakened implementation
	spec   pfs.Semantics
	delay  uint64 // spec staleness bound (eventual only)
	sched  pfstest.Schedule
	clause string
}

func mutants() []mutant {
	w := func(off int64, data string) pfstest.Op {
		return pfstest.Op{Kind: pfstest.OpWrite, Rank: 0, Off: off, Data: []byte(data)}
	}
	r := func(rank int, off int64) pfstest.Op {
		return pfstest.Op{Kind: pfstest.OpRead, Rank: rank, Off: off, Len: 64}
	}
	ms := []mutant{
		{
			name:   "commit-without-pending-isolation",
			impl:   pfs.Options{Semantics: pfs.Strong},
			spec:   pfs.Commit,
			sched:  pfstest.Schedule{w(0, "uncommitted"), r(1, 0)},
			clause: "commit-isolation",
		},
		{
			name:   "strong-without-immediate-visibility",
			impl:   pfs.Options{Semantics: pfs.Session},
			spec:   pfs.Strong,
			sched:  pfstest.Schedule{w(0, "hidden"), r(1, 0)},
			clause: "strong-read-latest",
		},
		{
			name: "session-without-close-visibility",
			impl: pfs.Options{Semantics: pfs.Commit},
			spec: pfs.Session,
			sched: pfstest.Schedule{w(0, "mid-session"),
				{Kind: pfstest.OpCommit, Rank: 0}, r(1, 0)},
			clause: "session-isolation",
		},
		{
			// Implementation delay 10 µs, spec bound 100 ns: with the
			// runner's 10 ns clock step, the trailing reads run well past
			// the spec bound but far inside the implementation's delay.
			name:   "eventual-with-unbounded-staleness",
			impl:   pfs.Options{Semantics: pfs.Eventual, EventualDelay: 10_000},
			spec:   pfs.Eventual,
			delay:  100,
			sched:  pfstest.Schedule{w(0, "late")},
			clause: "eventual-bounded-staleness",
		},
		{
			name:   "unordered-same-process",
			impl:   pfs.Options{Semantics: pfs.Commit, UnorderedSameProcess: true},
			spec:   pfs.Commit,
			sched:  pfstest.Schedule{w(0, "old"), w(0, "NEW"), r(0, 0)},
			clause: "po-read-your-writes",
		},
	}
	// Pad the staleness mutant with reads until the spec bound has long
	// expired (each op advances the clock by 10 ns).
	for i := 0; i < 20; i++ {
		ms[3].sched = append(ms[3].sched, r(1, 0))
	}
	return ms
}

func runMutant(t *testing.T, m mutant, sched pfstest.Schedule) Result {
	t.Helper()
	fs := pfs.New(m.impl)
	log := NewLog()
	fs.SetHistoryRecorder(log)
	if _, err := pfstest.Run(fs, sched); err != nil {
		t.Fatalf("mutant run: %v\n%s", err, pfstest.Format(sched))
	}
	return CheckLog(m.spec, log, Options{EventualDelayNS: m.delay})
}

// TestMutantsRejected: every weakened implementation must be rejected with
// a counterexample naming the clause it dropped.
func TestMutantsRejected(t *testing.T) {
	for _, m := range mutants() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			res := runMutant(t, m, m.sched)
			if res.OK() {
				t.Fatalf("spec %v accepted mutant history", m.spec)
			}
			v := res.Violation
			if v.Clause != m.clause {
				t.Fatalf("rejected with clause %s, want %s (%v)", v.Clause, m.clause, v)
			}
			if v.Read.Kind != pfs.OpRead {
				t.Fatalf("counterexample not anchored to a read: %v", v)
			}
			if v.String() == "" {
				t.Fatal("empty counterexample rendering")
			}
		})
	}
}

// TestMutantCounterexampleIsMinimal: shrinking a randomized failing mutant
// schedule yields a minimal still-rejected history — for the isolation
// mutant that is one write and one read.
func TestMutantCounterexampleIsMinimal(t *testing.T) {
	m := mutants()[0] // commit-without-pending-isolation
	base := pfstest.BaseSeed(t, 11)
	pfstest.Trials(t, base, 25, func(t *testing.T, rng *rand.Rand) {
		sched := pfstest.Generate(rng, pfstest.GenOptions{})
		fails := func(s pfstest.Schedule) bool {
			fs := pfs.New(m.impl)
			log := NewLog()
			fs.SetHistoryRecorder(log)
			if _, err := pfstest.Run(fs, s); err != nil {
				return false
			}
			return !CheckLog(m.spec, log, Options{}).OK()
		}
		if !fails(sched) {
			t.Skip("schedule has no isolation-violating read")
		}
		min := pfstest.Shrink(sched, fails)
		if len(min) != 2 {
			t.Fatalf("minimal counterexample has %d ops, want 2 (write + read):\n%s",
				len(min), pfstest.Format(min))
		}
		if min[0].Kind != pfstest.OpWrite || min[1].Kind != pfstest.OpRead {
			t.Fatalf("minimal counterexample is not write+read:\n%s", pfstest.Format(min))
		}
	})
}

// TestMutantsRejectedUnderRandomSchedules: across randomized schedules the
// specs keep catching the mutants — at least once per mutant over the
// sweep (any individual schedule may legitimately lack a violating read).
func TestMutantsRejectedUnderRandomSchedules(t *testing.T) {
	for _, m := range mutants() {
		m := m
		if m.name == "eventual-with-unbounded-staleness" {
			// Needs schedules long enough to cross the spec bound; the
			// deterministic case covers it.
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			base := pfstest.BaseSeed(t, 13)
			rng := rand.New(rand.NewSource(base))
			rejected := 0
			const trials = 200
			for i := 0; i < trials; i++ {
				sched := pfstest.Generate(rng, pfstest.GenOptions{})
				if res := runMutant(t, m, sched); !res.OK() {
					rejected++
				}
			}
			if rejected == 0 {
				t.Fatalf("mutant survived all %d randomized schedules", trials)
			}
			t.Logf("rejected %d/%d randomized schedules", rejected, trials)
		})
	}
}

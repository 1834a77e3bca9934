package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder/v1test"
)

// countingExecute wraps the execute seam with a per-configuration call
// counter so resume tests can prove what actually ran.
func countingExecute(t *testing.T) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	withExecute(t, func(cfg *apps.Config, opts apps.Options) (*harness.Result, error) {
		calls.Add(1)
		return apps.Execute(cfg, opts)
	})
	return &calls
}

// TestResumeSkipsJournaled pins the tentpole contract: a resumed sweep
// re-executes nothing that was journaled, and the replayed results carry
// record-identical traces.
func TestResumeSkipsJournaled(t *testing.T) {
	dir := t.TempDir()
	calls := countingExecute(t)
	cfgs := []*apps.Config{okConfig("A"), okConfig("B"), okConfig("C")}
	scale := TestScale()

	store, err := OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	first, err := runConfigsCtx(context.Background(), cfgs, scale, SweepOptions{Workers: 2, Checkpoint: store})
	store.Close()
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("first sweep executed %d configurations, want 3", got)
	}
	if sum := first.Summarize(); sum.Replayed != 0 || sum.Executed != 3 {
		t.Fatalf("first Summarize = %+v", sum)
	}

	calls.Store(0)
	store, err = OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	second, err := runConfigsCtx(context.Background(), cfgs, scale,
		SweepOptions{Workers: 2, Checkpoint: store, Resume: true})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("resumed sweep executed %d configurations, want 0", got)
	}
	if sum := second.Summarize(); sum.Replayed != 3 || sum.Executed != 0 {
		t.Fatalf("resumed Summarize = %+v", sum)
	}
	if got := second.ReplayedNames(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("ReplayedNames = %v", got)
	}
	if got := second.ExecutedNames(); len(got) != 0 {
		t.Fatalf("ExecutedNames = %v, want none", got)
	}
	for _, name := range first.Ordered {
		orig, replay := first.ByName[name], second.ByName[name]
		if !replay.Replayed {
			t.Fatalf("%s not marked Replayed", name)
		}
		if !reflect.DeepEqual(orig.Trace.Meta, replay.Trace.Meta) {
			t.Fatalf("%s meta differs after replay", name)
		}
		for rank := range orig.Trace.PerRank {
			if !reflect.DeepEqual(orig.Trace.Records(rank), replay.Trace.Records(rank)) {
				t.Fatalf("%s rank %d differs after replay", name, rank)
			}
		}
	}
}

// encodeResultV1 builds a journal blob in the result codec's version 1
// layout, whose rank streams were v1 record-framed streams:
//
//	uvarint header length | header JSON {v: 1, meta}
//	uvarint rank count
//	per rank: uvarint stream length | v1 stream bytes
func encodeResultV1(t *testing.T, res *harness.Result) []byte {
	t.Helper()
	hdr, err := json.Marshal(map[string]any{"v": 1, "meta": res.Trace.Meta})
	if err != nil {
		t.Fatal(err)
	}
	blob := binary.AppendUvarint(nil, uint64(len(hdr)))
	blob = append(blob, hdr...)
	blob = binary.AppendUvarint(blob, uint64(len(res.Trace.PerRank)))
	for rank := range res.Trace.PerRank {
		var stream bytes.Buffer
		if err := v1test.EncodeRankStream(&stream, rank, res.Trace.Records(rank)); err != nil {
			t.Fatal(err)
		}
		blob = binary.AppendUvarint(blob, uint64(stream.Len()))
		blob = append(blob, stream.Bytes()...)
	}
	return blob
}

// TestResumeRerunsOldCodecEntries: a journal entry written by the version 1
// result codec no longer decodes, so a resumed sweep counts it as a miss and
// re-runs that configuration, while a current entry still replays.
func TestResumeRerunsOldCodecEntries(t *testing.T) {
	dir := t.TempDir()
	cfgs := []*apps.Config{okConfig("Old"), okConfig("New")}
	scale := TestScale()
	ref, err := runConfigsCtx(context.Background(), cfgs, scale, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := encodeResultV1(t, ref.ByName["Old"])
	if _, err := ckpt.DecodeResult(old); err == nil {
		t.Fatal("a version 1 result decoded")
	}

	store, err := OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append("Old", old); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendResult("New", ref.ByName["New"]); err != nil {
		t.Fatal(err)
	}
	store.Close()

	calls := countingExecute(t)
	store, err = OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, err := runConfigsCtx(context.Background(), cfgs, scale,
		SweepOptions{Workers: 1, Checkpoint: store, Resume: true})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("resumed sweep executed %d configurations, want 1", got)
	}
	if got := r.ExecutedNames(); !reflect.DeepEqual(got, []string{"Old"}) {
		t.Fatalf("ExecutedNames = %v, want [Old]", got)
	}
	if got := r.ReplayedNames(); !reflect.DeepEqual(got, []string{"New"}) {
		t.Fatalf("ReplayedNames = %v, want [New]", got)
	}
	for _, name := range r.Ordered {
		if !reflect.DeepEqual(ref.ByName[name].Trace, r.ByName[name].Trace) {
			t.Fatalf("%s: trace differs from the reference run", name)
		}
	}
	// The re-run journaled the current codec, so the next resume replays it.
	if res, hit, err := store.LookupResult("Old"); err != nil || !hit || !res.Replayed {
		t.Fatalf("Old after resume: hit=%v err=%v", hit, err)
	}
}

// TestTimedOutConfigNotJournaled: a configuration that hits the per-task
// timeout must not be journaled — and must actually re-run on resume.
func TestTimedOutConfigNotJournaled(t *testing.T) {
	dir := t.TempDir()
	unblock := make(chan struct{})
	defer close(unblock)
	var hangDone atomic.Bool
	var hangRuns atomic.Int64
	withExecute(t, func(cfg *apps.Config, opts apps.Options) (*harness.Result, error) {
		if cfg.App == "HangApp" {
			hangRuns.Add(1)
			if !hangDone.Load() {
				<-unblock
				return nil, errors.New("unblocked late")
			}
		}
		return apps.Execute(cfg, opts)
	})
	cfgs := []*apps.Config{okConfig("HangApp"), okConfig("OkOne")}
	scale := TestScale()

	store, err := OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runConfigsCtx(context.Background(), cfgs, scale,
		SweepOptions{Workers: 2, TaskTimeout: 50 * time.Millisecond, Checkpoint: store})
	if err == nil {
		t.Fatal("expected the timed-out configuration to error")
	}
	if got := store.Keys(); !reflect.DeepEqual(got, []string{"OkOne"}) {
		t.Fatalf("journal holds %v, want only [OkOne] — timed-out work must not be journaled", got)
	}
	store.Close()

	// On resume the hung configuration runs again (now unblocked) while the
	// journaled one is replayed without executing.
	hangDone.Store(true)
	store, err = OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, err := runConfigsCtx(context.Background(), cfgs, scale,
		SweepOptions{Workers: 2, TaskTimeout: time.Minute, Checkpoint: store, Resume: true})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got := hangRuns.Load(); got != 2 {
		t.Fatalf("HangApp executed %d times, want 2 (timeout run + resume re-run)", got)
	}
	if !r.ByName["OkOne"].Replayed || r.ByName["HangApp"].Replayed {
		t.Fatalf("Replayed flags wrong: OkOne=%v HangApp=%v",
			r.ByName["OkOne"].Replayed, r.ByName["HangApp"].Replayed)
	}
	if sum := r.Summarize(); sum.Replayed != 1 || sum.Executed != 1 {
		t.Fatalf("Summarize = %+v", sum)
	}
	if got := store.Keys(); !reflect.DeepEqual(got, []string{"HangApp", "OkOne"}) {
		t.Fatalf("journal after resume holds %v", got)
	}
}

// TestCheckpointScaleMismatch: the manifest pins the sweep's identity, so a
// resume against a store written at a different scale fails loudly.
func TestCheckpointScaleMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCheckpoint(dir, TestScale())
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	other := TestScale()
	other.Ranks *= 2
	if _, err := OpenCheckpoint(dir, other); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("OpenCheckpoint at a different scale: err = %v, want ErrMismatch", err)
	}
	other = TestScale()
	other.Semantics = pfs.Session // a different consistency model is a different run
	if _, err := OpenCheckpoint(dir, other); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("OpenCheckpoint under different semantics: err = %v, want ErrMismatch", err)
	}
}

package apps

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
)

// A verify run names the first wrong byte and a short read exactly as it
// did when checkFill built the expected bytes in full. Each app runs on a
// model it needs more than, where it must report these failures, and on
// strong, where every read must check out.
func TestVerifyDiagnostics(t *testing.T) {
	var vaspShort []string
	for r := 1; r < 8; r++ {
		vaspShort = append(vaspShort, fmt.Sprintf("rank %d: 8 verification failure(s), first: vasp wavecar: short read 0/2048 bytes", r))
	}
	for _, c := range []struct {
		app  string
		fs   pfs.Options
		want []string
	}{
		// RAW-S on the trajectory header: BurstFS returns the first header.
		{"NWChem", pfs.Options{Semantics: pfs.Commit, UnorderedSameProcess: true},
			[]string{"rank 0: 1 verification failure(s), first: nwchem trajectory header: stale/corrupt byte at 0 (rank 0 step 10)"}},
		{"NWChem", pfs.Options{Semantics: pfs.Strong}, nil},
		// WAVECAR is read before rank 0's writes propagate.
		{"VASP", pfs.Options{Semantics: pfs.Eventual}, vaspShort},
		{"VASP", pfs.Options{Semantics: pfs.Strong}, nil},
	} {
		cfg, ok := Lookup(c.app)
		if !ok {
			t.Fatalf("no config %s", c.app)
		}
		res, err := Execute(cfg, Options{Ranks: 8, PPN: 2, FS: pfs.New(c.fs),
			Semantics: c.fs.Semantics, Params: Params{Verify: true}})
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		var got []string
		for _, e := range res.Errs {
			got = append(got, e.Error())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s under %+v reports\n %q\nwant\n %q", c.app, c.fs, got, c.want)
		}
	}

	// The index is that of the first wrong byte anywhere in the read.
	for _, i := range []int{0, 1, 7, 8, 1023, 1024, 2047} {
		ctx := &harness.Ctx{}
		got := fill("wave", 0, 3, 2048).Materialize()
		got[i] ^= 0x10
		got[2047] ^= 0x01 // a later wrong byte is not the one named
		checkFill(ctx, "w", "wave", 0, 3, payload.Bytes(got), 2048)
		want := fmt.Sprintf("1 verification failure(s), first: w: stale/corrupt byte at %d (rank 0 step 3)", i)
		if err := ctx.Failures(); err == nil || err.Error() != want {
			t.Errorf("byte %d flipped: %v, want %s", i, err, want)
		}
	}
	ctx := &harness.Ctx{}
	checkFill(ctx, "w", "wave", 0, 3, fill("wave", 0, 3, 100), 2048)
	if err := ctx.Failures(); err == nil || err.Error() != "1 verification failure(s), first: w: short read 100/2048 bytes" {
		t.Errorf("short read: %v", err)
	}
}

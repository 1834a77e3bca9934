package apps

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestMetadataDependencies is the future-work extension of §7 applied to
// the study's applications: which of them depend on *cross-process
// metadata visibility*? Exactly two do — LAMMPS-ADIOS (aggregators create
// subfiles inside the .bp directory rank 0 just made) and MACSio (group
// members open the Silo file the group root just created/truncated).
// Everything else creates and uses namespace entries within a single
// process or against pre-staged files, so relaxed-metadata PFSs
// (GekkoFS, BatchFS) suffice for 23 of the 25 configurations.
func TestMetadataDependencies(t *testing.T) {
	expected := map[string]core.MetaSignature{
		"LAMMPS-ADIOS": {CreateUse: true},
		"MACSio-Silo":  {CreateUse: true, ResizeUse: true},
	}
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			res := execute(t, cfg.Name(), Options{})
			cs, err := core.DetectMetadataConflictsParallelCtx(context.Background(), res.Trace, 1)
			if err != nil {
				t.Fatal(err)
			}
			sig := core.MetaSignatureOf(cs)
			if want := expected[cfg.Name()]; sig != want {
				t.Fatalf("metadata signature = %+v, want %+v (pairs: %v)", sig, want, cs)
			}
			// Like the data conflicts, all metadata dependencies must be
			// ordered by the program's synchronization.
			if len(cs) > 0 {
				hb, err := core.BuildHB(res.Trace)
				if err != nil {
					t.Fatal(err)
				}
				if un := core.ValidateMetaConflicts(hb, cs); len(un) > 0 {
					t.Fatalf("%d unsynchronized metadata dependencies: %v", len(un), un[0])
				}
			}
		})
	}
}

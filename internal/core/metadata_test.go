package core

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

func TestMetadataCensusCountsAndAttributes(t *testing.T) {
	res, err := harness.Run(harness.Config{Ranks: 1, Semantics: pfs.Strong},
		recorder.Meta{App: "census"}, func(ctx *harness.Ctx) error {
			// App-level metadata.
			ctx.OS.Getcwd()
			ctx.OS.Mkdir("/d", 0o755)
			ctx.OS.Stat("/d")
			ctx.OS.Stat("/d")
			// Library-level metadata: wrap an access in an HDF5 record.
			ts := ctx.OS.Clock().Stamp()
			ctx.OS.Access("/d")
			ctx.OS.Lstat("/d")
			ctx.Tracer.Emit(recorder.Record{
				Layer: recorder.LayerHDF5, Func: recorder.FuncH5Fopen,
				TStart: ts, TEnd: ctx.OS.Clock().Stamp(), Path: "/d",
			})
			return nil
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	c := census(res.Trace)
	if c.Counts["App"][recorder.FuncGetcwd] != 1 {
		t.Fatalf("getcwd count = %d", c.Counts["App"][recorder.FuncGetcwd])
	}
	if c.Counts["App"][recorder.FuncStat] != 2 {
		t.Fatalf("stat count = %d", c.Counts["App"][recorder.FuncStat])
	}
	if c.Counts["HDF5"][recorder.FuncAccess] != 1 || c.Counts["HDF5"][recorder.FuncLstat] != 1 {
		t.Fatalf("HDF5 attribution broken: %+v", c.Counts)
	}
	if !c.Used(recorder.FuncMkdir) || c.Used(recorder.FuncRename) {
		t.Fatal("Used() broken")
	}
	if c.Total() != 6 {
		t.Fatalf("total = %d, want 6", c.Total())
	}
	if len(c.Origins()) != 2 {
		t.Fatalf("origins = %v", c.Origins())
	}
	if len(c.Funcs()) != 5 {
		t.Fatalf("funcs = %v", c.Funcs())
	}
}

func TestOriginNames(t *testing.T) {
	cases := map[recorder.Layer]string{
		recorder.LayerMPIIO:  "MPI",
		recorder.LayerHDF5:   "HDF5",
		recorder.LayerNetCDF: "NetCDF",
		recorder.LayerADIOS:  "ADIOS",
		recorder.LayerSilo:   "Silo",
		recorder.LayerApp:    "App",
		recorder.LayerPOSIX:  "App",
	}
	for l, want := range cases {
		if got := originName(l); got != want {
			t.Errorf("originName(%v) = %q, want %q", l, got, want)
		}
	}
}

func TestCensusDataOpsNotCounted(t *testing.T) {
	res, err := harness.Run(harness.Config{Ranks: 1, Semantics: pfs.Strong},
		recorder.Meta{App: "census2"}, func(ctx *harness.Ctx) error {
			fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
			ctx.OS.Write(fd, make([]byte, 100))
			return ctx.OS.Close(fd)
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	c := census(res.Trace)
	if c.Total() != 0 {
		t.Fatalf("open/write/close are not §6.4 metadata ops; census = %+v", c.Counts)
	}
}

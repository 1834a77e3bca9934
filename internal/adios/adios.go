// Package adios emulates the ADIOS2/BP output engine at file-system level:
// writer ranks are grouped into substreams, each substream's aggregator
// appends data blocks to its own data.N subfile (the paper's M-M pattern
// for LAMMPS-ADIOS), and rank 0 maintains a metadata file (md.0, appended)
// plus an index file (md.idx) whose step-status byte is overwritten at
// every step — the single-byte overwrite the paper identifies as the
// source of LAMMPS-ADIOS's WAW-S conflict ("the conflict is due to the
// overwriting of a single byte of the ADIOS metadata file (*/md.idx)").
package adios

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/posix"
	"repro/internal/recorder"
)

// Index file layout.
const (
	idxStatusOff = 24 // offset of the step-status byte within md.idx
	idxHeaderLen = 64
	idxEntryLen  = 64
)

// Writer is one rank's handle on an open ADIOS output.
type Writer struct {
	comm   *mpi.Proc
	os     *posix.Proc
	tracer *recorder.RankTracer

	dir        string // output directory (name.bp/)
	substreams int    // data subfiles / aggregators (ADIOS's NumAggregators): one per compute node
	sub        int    // this rank's substream
	agg        int    // aggregator rank of this substream
	dataFD     int    // aggregator-only: data.N descriptor
	mdFD       int    // rank 0: md.0 descriptor
	idxFD      int    // rank 0: md.idx descriptor
	step       int64
	closed     bool
}

// OpenWriter opens an ADIOS output collectively.
func OpenWriter(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, name string) (*Writer, error) {
	w := &Writer{comm: comm, os: os, tracer: tracer, dir: name + ".bp", substreams: comm.Nodes()}
	// Ranks are split into contiguous substream groups; the first rank of
	// each group aggregates.
	group := (comm.Size() + w.substreams - 1) / w.substreams
	w.sub = comm.Rank() / group
	w.agg = w.sub * group

	ts := os.Clock().Stamp()
	var err error
	if comm.Rank() == 0 {
		// ADIOS resolves the output path, clears a stale index and creates
		// the .bp directory (the getcwd/unlink Figure 3 attributes to it).
		os.Getcwd()
		_ = os.Remove(w.dir + "/md.idx")
		if merr := os.Mkdir(w.dir, 0o755); merr != nil && !errors.Is(merr, pfs.ErrExist) {
			err = merr
		}
	}
	comm.Barrier() // directory must exist before subfile creation
	if err != nil {
		w.emit(recorder.FuncADIOSOpen, ts, w.dir)
		return nil, fmt.Errorf("adios: %w", err)
	}
	if comm.Rank() == w.agg {
		w.dataFD, err = os.Open(fmt.Sprintf("%s/data.%d", w.dir, w.sub),
			recorder.OCreat|recorder.OWronly|recorder.OAppend, 0o644)
	}
	if err == nil && comm.Rank() == 0 {
		w.mdFD, err = os.Open(w.dir+"/md.0", recorder.OCreat|recorder.OWronly|recorder.OAppend, 0o644)
		if err == nil {
			w.idxFD, err = os.Open(w.dir+"/md.idx", recorder.OCreat|recorder.ORdwr, 0o644)
		}
		if err == nil {
			_, err = os.Pwrite(w.idxFD, payload.Bytes(make([]byte, idxHeaderLen)), 0)
		}
	}
	w.emit(recorder.FuncADIOSOpen, ts, w.dir)
	if err != nil {
		return nil, fmt.Errorf("adios: %w", err)
	}
	return w, nil
}

func (w *Writer) emit(fn recorder.Func, ts uint64, path string, args ...int64) {
	w.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerADIOS,
		Func:   fn,
		TStart: ts,
		TEnd:   w.os.Clock().Stamp(),
		Path:   path,
	}, args)
}

// Put stages this rank's data block for the current step and ships it to
// the substream aggregator, which appends it to the substream's data file.
// A payload shipped to the aggregator travels as bytes.
func (w *Writer) Put(varName string, data payload.P) error {
	ts := w.os.Clock().Stamp()
	defer w.emit(recorder.FuncADIOSPut, ts, w.dir, data.Len())
	if w.comm.Rank() == w.agg {
		// Collect from the group members (including self), in rank order.
		group := w.groupRanks()
		for _, r := range group {
			block := data
			if r != w.comm.Rank() {
				block = payload.Bytes(w.comm.Recv(r, 100+int(w.step)%100))
			}
			if _, err := w.os.Write(w.dataFD, block); err != nil {
				return err
			}
		}
		return nil
	}
	w.comm.Send(w.agg, 100+int(w.step)%100, data.Materialize())
	return nil
}

func (w *Writer) groupRanks() []int {
	group := (w.comm.Size() + w.substreams - 1) / w.substreams
	lo := w.sub * group
	hi := lo + group
	if hi > w.comm.Size() {
		hi = w.comm.Size()
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// EndStep seals the step: rank 0 appends a metadata block to md.0, appends
// an index entry to md.idx, and overwrites the index status byte — the
// WAW-S single-byte overwrite.
func (w *Writer) EndStep() error {
	ts := w.os.Clock().Stamp()
	defer w.emit(recorder.FuncADIOSEndStep, ts, w.dir, w.step)
	w.comm.Barrier() // steps are collective
	if w.comm.Rank() == 0 {
		if _, err := w.os.Write(w.mdFD, payload.Bytes(make([]byte, 256))); err != nil {
			return err
		}
		entryOff := idxHeaderLen + w.step*idxEntryLen
		if _, err := w.os.Pwrite(w.idxFD, payload.Bytes(make([]byte, idxEntryLen)), entryOff); err != nil {
			return err
		}
		// Overwrite the step-status byte in the index header.
		if _, err := w.os.Pwrite(w.idxFD, payload.Bytes([]byte{byte(w.step + 1)}), idxStatusOff); err != nil {
			return err
		}
	}
	w.step++
	return nil
}

// Close closes the engine collectively.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("adios: double close of %s", w.dir)
	}
	w.closed = true
	ts := w.os.Clock().Stamp()
	var err error
	if w.comm.Rank() == w.agg {
		err = w.os.Close(w.dataFD)
	}
	if w.comm.Rank() == 0 {
		if cerr := w.os.Close(w.mdFD); err == nil {
			err = cerr
		}
		if cerr := w.os.Close(w.idxFD); err == nil {
			err = cerr
		}
	}
	w.comm.Barrier()
	w.emit(recorder.FuncADIOSClose, ts, w.dir)
	return err
}

// Package silo emulates the Silo library's multi-file ("poor man's
// parallel" / baton-passing) output mode as used by MACSio: the job's ranks
// are split into M groups, each group shares one Silo file, and within a
// group the ranks write one after another — each rank receives the baton
// from its predecessor, opens the file, writes its mesh and variable
// blocks at strided per-rank offsets, and hands the baton on. The group
// root finally rewrites the file's table of contents, producing the
// same-process WAW the paper reports for MACSio (Table 4), and the
// group-strided layout produces MACSio's N-M strided pattern (Table 3).
package silo

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/posix"
	"repro/internal/recorder"
)

const (
	tocLen   = 384 // table-of-contents region at the start of each file
	batonTag = 7001
)

// Options configures the multi-file layout. The N ranks share M Silo
// files, one per compute node.
type Options struct {
	// BlockSize is the bytes each rank writes per variable.
	BlockSize int64
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 1024
	}
	return o
}

// Dump writes one MACSio-style dump: every rank writes a mesh block and one
// block per variable into its group's file, serialized by baton passing.
// Variables are laid out variable-major: all ranks' blocks of variable 0,
// then variable 1, ... so each rank's accesses within the file are strided.
func Dump(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, baseName string, vars []string, opts Options) error {
	o := opts.withDefaults()
	files := comm.Nodes()
	group := (comm.Size() + files - 1) / files
	fileIdx := comm.Rank() / group
	groupLo := fileIdx * group
	groupHi := groupLo + group
	if groupHi > comm.Size() {
		groupHi = comm.Size()
	}
	inGroup := comm.Rank() - groupLo
	groupN := int64(groupHi - groupLo)
	path := fmt.Sprintf("%s.%03d.silo", baseName, fileIdx)

	emit := func(fn recorder.Func, ts uint64, args ...int64) {
		tracer.Emit(recorder.Record{
			Layer: recorder.LayerSilo, Func: fn,
			TStart: ts, TEnd: os.Clock().Stamp(),
			Path: path,
		}, args)
	}

	// Wait for the baton from the previous rank in the group.
	if inGroup > 0 {
		comm.Recv(comm.Rank()-1, batonTag)
	}

	var fd int
	var err error
	if inGroup == 0 {
		ts := os.Clock().Stamp()
		fd, err = os.Open(path, recorder.OCreat|recorder.ORdwr|recorder.OTrunc, 0o644)
		emit(recorder.FuncDBCreate, ts)
		if err == nil {
			// Initial TOC write; rewritten after all ranks are done (WAW-S).
			_, err = os.Pwrite(fd, payload.Bytes(tocBytes(path)), 0)
		}
	} else {
		ts := os.Clock().Stamp()
		fd, err = os.Open(path, recorder.ORdwr, 0o644)
		emit(recorder.FuncDBOpen, ts)
	}
	if err != nil {
		return fmt.Errorf("silo: %w", err)
	}

	// Mesh block, then one block per variable, at variable-major strided
	// offsets.
	tsm := os.Clock().Stamp()
	meshOff := int64(tocLen) + int64(inGroup)*o.BlockSize
	if _, err := os.Pwrite(fd, payload.Bytes(fill('M', o.BlockSize)), meshOff); err != nil {
		return err
	}
	emit(recorder.FuncDBPutQuadmesh, tsm, meshOff, o.BlockSize)
	varBase := int64(tocLen) + groupN*o.BlockSize
	for vi, v := range vars {
		tsv := os.Clock().Stamp()
		off := varBase + int64(vi)*groupN*o.BlockSize + int64(inGroup)*o.BlockSize
		if _, err := os.Pwrite(fd, payload.Bytes(fill(byte('0'+vi%10), o.BlockSize)), off); err != nil {
			return err
		}
		emit(recorder.FuncDBPutQuadvar, tsv, off, o.BlockSize)
		_ = v
	}

	// The group root registers the multi-block directory, updating the
	// front of the TOC it wrote at DBCreate — a second same-process write
	// over the same bytes within one open session: MACSio's WAW-S conflict
	// (no commit and no close/open pair between the two writes).
	if inGroup == 0 {
		tsd := os.Clock().Stamp()
		if _, err := os.Pwrite(fd, payload.Bytes(tocBytes(path)[:128]), 0); err != nil {
			return err
		}
		emit(recorder.FuncDBMkDir, tsd)
	}

	// Pass the baton or, as the last rank, notify the group root to seal.
	if int64(inGroup) < groupN-1 {
		if err := os.Close(fd); err != nil {
			return err
		}
		comm.Send(comm.Rank()+1, batonTag, []byte{1})
		if inGroup == 0 {
			// Root waits for the seal notification from the last rank.
			comm.Recv(groupLo+int(groupN)-1, batonTag+1)
			tsr := os.Clock().Stamp()
			fd2, err := os.Open(path, recorder.ORdwr, 0o644)
			emit(recorder.FuncDBOpen, tsr)
			if err != nil {
				return err
			}
			tst := os.Clock().Stamp()
			if _, err := os.Pwrite(fd2, payload.Bytes(tocBytes(path)), 0); err != nil {
				return err
			}
			emit(recorder.FuncDBMkDir, tst) // TOC/directory update
			tsc := os.Clock().Stamp()
			err = os.Close(fd2)
			emit(recorder.FuncDBClose, tsc)
			return err
		}
		return nil
	}
	// Last rank in the group.
	if err := os.Close(fd); err != nil {
		return err
	}
	if groupN > 1 {
		comm.Send(groupLo, batonTag+1, []byte{1})
		tsc := os.Clock().Stamp()
		emit(recorder.FuncDBClose, tsc)
		return nil
	}
	// Single-rank group: root seals its own file.
	tsr := os.Clock().Stamp()
	fd2, err := os.Open(path, recorder.ORdwr, 0o644)
	emit(recorder.FuncDBOpen, tsr)
	if err != nil {
		return err
	}
	if _, err := os.Pwrite(fd2, payload.Bytes(tocBytes(path)), 0); err != nil {
		return err
	}
	tsc := os.Clock().Stamp()
	err = os.Close(fd2)
	emit(recorder.FuncDBClose, tsc)
	return err
}

func fill(b byte, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func tocBytes(path string) []byte {
	b := make([]byte, tocLen)
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	for i := range b {
		h = h*2862933555777941757 + 3037000493
		b[i] = byte(h >> 48)
	}
	return b
}

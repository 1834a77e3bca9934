package semfs

import (
	"context"

	"repro/internal/core"
	"repro/internal/recorder"
)

// AnalyzeStreams runs AnalyzeDirOn's pipeline over rank streams the caller
// opens, so external tests can feed the scan streams of their own making.
func AnalyzeStreams(meta recorder.Meta, workers int, open func(rank int) (core.RecordStream, func(), error)) (*Analysis, error) {
	ctx := context.Background()
	sc, err := core.ScanRanksCtx(ctx, meta.Ranks, workers, open)
	if err != nil {
		return nil, err
	}
	return analyzeScan(ctx, meta, sc, workers)
}

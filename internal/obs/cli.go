package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI plumbing shared by cmd/semanalyze, cmd/semrepro and cmd/semtrace:
// the -metrics / -trace-spans / -pprof flags all funnel through here so
// the binaries expose telemetry identically. Every output is a file
// written by this process; nothing here listens on a socket, so the
// binaries link no net package.

// CLIFlags bundles the telemetry flags of the repo's binaries. Call
// Register before flag.Parse, Start right after it, and Flush (usually
// deferred) once the run finishes.
type CLIFlags struct {
	Metrics    string
	TraceSpans string
	Pprof      string

	cpuProfile *os.File
}

// Register installs the telemetry flags on fs.
func (f *CLIFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "",
		`write a JSON metrics snapshot to this file on exit ("-" for stdout)`)
	fs.StringVar(&f.TraceSpans, "trace-spans", "",
		"write spans to this file on exit as Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	fs.StringVar(&f.Pprof, "pprof", "",
		"write a CPU profile of the whole run to this file, and an allocation profile to FILE.allocs (read with go tool pprof)")
}

// Start applies the parsed flags: creates the -pprof file and starts the
// CPU profile (an uncreatable path fails here, before any work), resets
// the default registry so the snapshot covers exactly this invocation, and
// enables span collection when -trace-spans was given.
func (f *CLIFlags) Start() error {
	if f.Pprof != "" {
		pf, err := os.Create(f.Pprof)
		if err != nil {
			return fmt.Errorf("obs: pprof: %w", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fmt.Errorf("obs: pprof: %w", err)
		}
		f.cpuProfile = pf
	}
	if f.Metrics != "" {
		Default().reset()
	}
	if f.TraceSpans != "" {
		Default().Tracer().SetEnabled(true)
	}
	return nil
}

// Flush writes the requested telemetry files. With -pprof it stops the CPU
// profile Start began and writes the allocation profile next to it; a
// second Flush rewrites the snapshot files and leaves the profiles alone.
func (f *CLIFlags) Flush() error {
	var errs []error
	if f.Metrics != "" {
		errs = append(errs, writeMetricsFile(f.Metrics))
	}
	if f.TraceSpans != "" {
		errs = append(errs, writeSpansFile(f.TraceSpans))
	}
	if f.cpuProfile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuProfile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: pprof: %w", err))
		}
		f.cpuProfile = nil
		errs = append(errs, writeAllocsProfile(f.Pprof+".allocs"))
	}
	return errors.Join(errs...)
}

// writeAllocsProfile writes the run's allocation profile to path. The
// profile counts allocations up to the last completed GC, so one runs
// first to take in the tail of the run.
func writeAllocsProfile(path string) error {
	runtime.GC()
	pf, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: pprof: %w", err)
	}
	err = pprof.Lookup("allocs").WriteTo(pf, 0)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: pprof: %w", err)
	}
	return nil
}

// writeMetricsFile snapshots the instruments this run touched on the
// default registry and writes them to path as JSON ("-" writes to stdout).
func writeMetricsFile(path string) error {
	b, err := Default().Snapshot().touched().encodeJSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: write metrics: %w", err)
	}
	return nil
}

// writeSpansFile writes the default tracer's spans to path as a Chrome
// trace_event JSON document (open in chrome://tracing or Perfetto).
func writeSpansFile(path string) error {
	b, err := Default().Tracer().chromeTraceJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: write spans: %w", err)
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// child is one finished CLI execution.
type child struct {
	code     int
	stderr   []byte
	wall     time.Duration // exec to exit
	cpu      time.Duration // user + system, from rusage
	rssMB    float64       // peak resident set, from rusage
	timedOut bool
}

// waitDelay bounds how long Wait keeps draining the stderr pipe after the
// child is killed, so a grandchild holding it open cannot hang the benchmark.
const waitDelay = 5 * time.Second

// procs is the GOMAXPROCS of every child and of the traced in-process run.
// On a shared host a program using a second core measures how free that
// core is: a workload using two cores moved by 20% while the same host ran
// one-core programs at a steady speed. One core gives the cost of the work
// itself, which the calibration job can then scale.
const procs = 1

// runChild executes argv with GOMAXPROCS=procs, writing its stdout to the
// file stdout (discarded when stdout is ""), capturing stderr, and kills it
// once timeout elapses. Stdout goes to a file, not a pipe, so a child
// printing megabytes never waits for this process to read them. A start
// failure is the only error; a nonzero exit or a timeout is reported in the
// result.
func runChild(ctx context.Context, timeout time.Duration, argv []string, stdout string) (child, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	if stdout != "" {
		f, err := os.Create(stdout)
		if err != nil {
			return child{}, fmt.Errorf("bench: %w", err)
		}
		defer f.Close()
		cmd.Stdout = f
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.WaitDelay = waitDelay
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, fmt.Errorf("bench: start %s: %w", filepath.Base(argv[0]), err)
	}
	_ = cmd.Wait() // the exit status is read from ProcessState below
	c := child{
		wall:     time.Since(start),
		stderr:   stderr.Bytes(),
		timedOut: errors.Is(ctx.Err(), context.DeadlineExceeded),
	}
	ps := cmd.ProcessState
	c.code = ps.ExitCode()
	c.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// hashTree digests every regular file under dir, with its relative path and
// length, in lexical order: two trees hash equal only if byte-identical.
func hashTree(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("bench: hash %s: %w", dir, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("bench: hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// treeSize is the total size in bytes of the regular files under dir.
func treeSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

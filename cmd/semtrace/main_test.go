package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run semtrace's main instead of the
// tests, so a test can drive the real command line.
const runMainEnv = "SEMTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestUsageErrors: a command line semtrace cannot run exits 2 with the
// reason on stderr and nothing on stdout, before any application runs.
// semtrace reads no trace, so -convert and -workers are unknown flags.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"convert", []string{"-convert", "x"}, "flag provided but not defined: -convert"},
		{"workers", []string{"-app", "FLASH-nofbs", "-workers", "2"}, "flag provided but not defined: -workers"},
		{"no-app", nil, "-app is required"},
		{"bad-semantics", []string{"-app", "FLASH-nofbs", "-semantics", "linearizable"}, `unknown semantics "linearizable"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("semtrace %v: %v, want exit 2", tc.args, err)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("semtrace %v: stdout %q, stderr %q; want no stdout and %q", tc.args, stdout.String(), stderr.String(), tc.stderr)
			}
		})
	}
}

package semfs_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// cliPackages are the commands a user runs over traces. Each is a short
// offline pass, so its start-up footprint is part of every analysis.
var cliPackages = []string{
	"repro/cmd/semanalyze",
	"repro/cmd/semtrace",
	"repro/cmd/semrepro",
	"repro/cmd/pfsbench",
}

// forbiddenDeps are the packages whose presence undoes the static link:
// net makes a default cgo build link libc dynamically (runtime/cgo is the
// mark of that), and net/http is the usual way net comes in.
var forbiddenDeps = []string{"net", "net/http", "runtime/cgo"}

// TestCLIsLinkNoNet pins the CLIs' link set: none of them may depend on
// net, net/http or runtime/cgo. One stray import (an HTTP debug endpoint,
// a blank-imported exporter) would bring the dynamic libc and its mapped
// pages back into every run.
func TestCLIsLinkNoNet(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to list the CLIs' dependencies: %v", err)
	}
	args := append([]string{"list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`}, cliPackages...)
	out, err := exec.Command(goBin, args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(cliPackages) {
		t.Fatalf("go list printed %d packages, want %d:\n%s", len(lines), len(cliPackages), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if slices.Contains(forbiddenDeps, dep) {
				t.Errorf("%s depends on %s", fields[0], dep)
			}
		}
	}
}

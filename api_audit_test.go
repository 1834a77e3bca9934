package semfs_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The API audit: every exported name of a production package has a
// caller outside its package that is not a test, and every field of an
// options struct has a setter outside its package that is not a test.
// A name or a field with only test callers is a knob or an entry point
// nothing uses; it becomes a constant, moves into its package's
// export_test.go, or is deleted. The two allowlists below name the
// deliberate exceptions, each with its reason; the test fails on any
// finding missing from them and on any entry that no longer matches a
// finding, so neither list can go stale.

// unusedExportAllow holds exported names that no non-test file outside
// their package references, keyed by package path (relative to the
// module root) and name, methods as Type.Method. Each stays exported
// because the tests of another package use it, which an export_test.go
// cannot serve.
var unusedExportAllow = map[string]string{
	"internal/consistency.Log.Events":                     "wal's tests check recorded histories event by event",
	"internal/core.ConflictSignature.Any":                 "root package tests assert that a configuration has (or lacks) conflicts",
	"internal/core.ConflictSignature.HasDifferentProcess": "root package and apps tests assert cross-process conflicts per configuration",
	"internal/core.PatternMix.Total":                      "root package tests and benchmarks check that a census is non-empty",
	"internal/core.ValidateMetaConflicts":                 "apps' metadata-conflict test validates each configuration's conflicts against happens-before",
	"internal/experiments.Table4Rows":                     "the root package's Table 4 benchmark renders its rows",
	"internal/faults.KillEnv":                             "wal's kill-and-recover tests set the kill-point variable in a child's environment",
	"internal/mpiio.File.ReadAtAll":                       "hdf5's test-only dataset reads go through the collective read",
	"internal/obs.BucketOf":                               "report's tests place observations in histogram buckets",
	"internal/obs.Registry.SetEnabled":                    "the root package's telemetry benchmark times a sweep with metrics off and on",
	"internal/obs.Registry.Snapshot":                      "root package tests read the registry's state after a run",
	"internal/obs.Snapshot":                               "root package tests read the registry's state after a run",
	"internal/obs.SpanInfo":                               "returned by Tracer.Spans",
	"internal/obs.Tracer.SetEnabled":                      "cmd/semanalyze's one-sweep test switches span collection on",
	"internal/obs.Tracer.Spans":                           "cmd/semanalyze's one-sweep test counts the pass spans of a run",
	"internal/pfs.Client.Crash":                           "wal's tests crash a client before a logged write drains",
	"internal/pfs.Client.Crashed":                         "faults' tests check which clients a schedule crashed",
	"internal/pfs.ErrCrashed":                             "error contract: faults' and wal's tests match a crashed client with errors.Is",
	"internal/pfs.ErrLaminated":                           "error contract: wal's tests and pfstest match a write to a laminated file with errors.Is",
	"internal/pfs.FileSystem.Rename":                      "posix's test-only rename(2) renames through it",
	"internal/pfs.Handle.Laminate":                        "wal's test-only laminate and pfstest laminate through it",
	"internal/pfs.ORdonly":                                "open-flag set: production opens with ORdwr and OCreat, other packages' tests open read-only",
	"internal/pfs.OWronly":                                "open-flag set: production opens with ORdwr and OCreat, other packages' tests open write-only",
	"internal/posix.Proc.Fread":                           "core's extraction tests trace stdio reads",
	"internal/posix.Proc.Fseek":                           "core's extraction tests trace stdio seeks",
	"internal/recorder.ErrTruncated":                      "error contract: colfmt's tests match a truncated stream with errors.Is",
	"internal/recorder.RankTracer.Rank":                   "posix's tests build a trace around a tracer of a given rank",
	"internal/recorder.Salvage.Degraded":                  "root package and colfmt tests check what a lenient load lost",
	"internal/recorder.Trace.Records":                     "the in-memory trace's record view: thirteen packages' tests read traces through it",
	"internal/recorder.TraceError":                        "error contract: root package tests match a malformed emit with errors.As",
	"internal/recorder/colfmt.Cursor":                     "returned by Reader.Cursor",
	"internal/recorder/colfmt.EncodeOptions":              "the small-block salvage tests of the root package, cmd/semanalyze and apps choose a block size through it",
	"internal/recorder/colfmt.EncodeStream":               "the small-block salvage tests of the root package, cmd/semanalyze and apps encode through it",
	"internal/recorder/colfmt.ErrBadMagic":                "error contract: cmd/semanalyze's tests match a rejected rank file with errors.Is",
	"internal/recorder/colfmt.NewReader":                  "apps' assembly oracle decodes a rank stream record by record",
	"internal/recorder/colfmt.Reader":                     "apps' assembly oracle decodes a rank stream record by record",
	"internal/recorder/colfmt.Reader.Cursor":              "apps' assembly oracle decodes a rank stream record by record",
	"internal/storage.FaultKind":                          "the flaky backend's fault taxonomy: wal's tests build schedules from it",
	"internal/storage.FaultTransient":                     "the flaky backend's fault taxonomy: wal's tests build schedules from it",
	"internal/storage.GenOptions":                         "wal's tests generate flaky-backend schedules",
	"internal/storage.GenSchedule":                        "wal's tests generate flaky-backend schedules",
	"internal/storage.NewFlaky":                           "colfmt's and wal's tests wrap a backend with injected faults",
	"internal/storage.Schedule":                           "colfmt's and wal's tests pass flaky-backend schedules",
	"internal/storage.Schedule.Encode":                    "wal's tests print a failing schedule",
	"internal/storage.Schedule.TransientOnly":             "wal's tests check a generated schedule's kinds",
}

// unsetFieldAllow holds option fields that no non-test file outside
// their package sets, keyed as package path, struct and field.
var unsetFieldAllow = map[string]string{
	"internal/faults.SweepOptions.Kinds":                  "chaos tests narrow the fault taxonomy to pin one kind's effect",
	"internal/faults.SweepOptions.Replay":                 "chaos tests re-run each cell to check determinism, which doubles a sweep's cost",
	"internal/hdf5.Options.CollectiveMetadata":            "the paper's one-line FLASH fix (section 6.3), which apps' tests run under session semantics",
	"internal/pfs.Options.UnorderedSameProcess":           "the BurstFS mode tests use as a reference to check verdicts against",
	"internal/recorder/colfmt.EncodeOptions.BlockRecords": "the small-block salvage tests need blocks smaller than a test trace",
	"internal/storage.GenOptions.Count":                   "wal's tests size generated flaky-backend schedules",
	"internal/storage.GenOptions.Kinds":                   "wal's tests narrow generated flaky-backend schedules",
	"internal/storage.RetryOptions.Now":                   "a seam for a fake clock in tests",
	"internal/storage.RetryOptions.Sleep":                 "a seam for a fake clock in tests",
}

// testSupportPkgs are production-built packages that exist for tests:
// their exports are not audited, and their references are test
// references.
var testSupportPkgs = map[string]bool{
	"internal/analysistest":    true,
	"internal/pfs/pfstest":     true,
	"internal/recorder/v1test": true,
}

// configStructs are audited field by field in addition to every exported
// struct whose name ends in "Options".
var configStructs = map[string]bool{
	"internal/harness.Config": true,
}

// auditPkg is one package's non-test files, type-checked.
type auditPkg struct {
	rel   string // directory relative to the module root; "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadAuditPkgs parses and type-checks the non-test files of every package
// under the module root, the benchmark module under bench/ included (its
// callers count): the standard library from source, the repository's
// packages from what it parsed.
func loadAuditPkgs(t *testing.T) []*auditPkg {
	t.Helper()
	fset := token.NewFileSet()
	byPath := map[string]*auditPkg{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &auditPkg{rel: filepath.ToSlash(dir)}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			byPath[path.Join("repro", p.rel)] = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(fset, "source", nil)
	var check func(importPath string, p *auditPkg) *types.Package
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if p, ok := byPath[importPath]; ok {
			return check(importPath, p), nil
		}
		return std.Import(importPath)
	})
	check = func(importPath string, p *auditPkg) *types.Package {
		if p.types == nil {
			p.info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			var err error
			if p.types, err = (&types.Config{Importer: imp}).Check(importPath, fset, p.files, p.info); err != nil {
				t.Fatalf("type-checking %s: %v", importPath, err)
			}
		}
		return p.types
	}
	pkgs := make([]*auditPkg, 0, len(byPath))
	for importPath, p := range byPath {
		check(importPath, p)
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// auditName is obj's allowlist key: its package directory and name, a
// method qualified by its receiver's type.
func auditName(obj types.Object) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "repro"), "/")
	if rel == "" {
		rel = "."
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv()
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		return rel + "." + rt.(*types.Named).Obj().Name() + "." + obj.Name()
	}
	return rel + "." + obj.Name()
}

// interfacesInReach lists every interface a method can be called through:
// the named ones of the repository and of everything it imports, the
// anonymous ones its code spells out, and the ones the errors package
// declares inside its functions (Unwrap, Is, As).
func interfacesInReach(pkgs []*auditPkg) []*types.Interface {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	tuple := func(ts ...types.Type) *types.Tuple {
		vs := make([]*types.Var, len(ts))
		for i, t := range ts {
			vs[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vs...)
	}
	for _, m := range []struct {
		name            string
		params, results *types.Tuple
	}{
		{"Unwrap", tuple(), tuple(errType)},
		{"Unwrap", tuple(), tuple(types.NewSlice(errType))},
		{"Is", tuple(errType), tuple(types.Typ[types.Bool])},
		{"As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])},
	} {
		fn := types.NewFunc(token.NoPos, nil, m.name, types.NewSignatureType(nil, nil, nil, m.params, m.results, false))
		add(types.NewInterfaceType([]*types.Func{fn}, nil).Complete())
	}
	return ifaces
}

// callersAndSetters returns what the files that count as callers use from
// other packages, and which struct fields of other packages they set: as a
// composite literal's key or element, by assignment, by ++/--, or by
// taking the field's address (as a flag.Var call does).
func callersAndSetters(pkgs []*auditPkg) (used, set map[types.Object]bool) {
	used, set = map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range pkgs {
		if testSupportPkgs[p.rel] {
			continue
		}
		outside := func(obj types.Object) bool {
			return obj != nil && obj.Pkg() != nil && obj.Pkg() != p.types
		}
		for _, obj := range p.info.Uses {
			if obj = origin(obj); outside(obj) {
				used[obj] = true
			}
		}
		setField := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					if obj := origin(s.Obj()); outside(obj) {
						set[obj] = true
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						var obj types.Object
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							obj = p.info.Uses[kv.Key.(*ast.Ident)]
						} else {
							obj = st.Field(i)
						}
						if obj = origin(obj); outside(obj) {
							set[obj] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setField(lhs)
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				}
				return true
			})
		}
	}
	return used, set
}

// reachableTypes returns the named types that a used name's type mentions,
// through signatures, elements and exported fields: callers hold values
// of them without naming them.
func reachableTypes(used map[types.Object]bool) map[*types.Named]bool {
	reach := map[*types.Named]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			t = t.Origin()
			if reach[t] {
				return
			}
			reach[t] = true
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for obj := range used {
		switch obj.(type) {
		case *types.TypeName, *types.Func, *types.Var:
			walk(obj.Type())
		}
	}
	return reach
}

// TestAPIAudit lists every exported name of a production package that no
// non-test file outside the package references (cmd/, examples/ and
// bench/ count), and every field of an options struct that no such file
// sets, and fails on each one the allowlists do not name. A type counts
// as referenced when a referenced name's type reaches it, a typed
// constant when its type does (an enumeration is used as a whole), and a
// method when its type satisfies an interface that has it.
func TestAPIAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs := loadAuditPkgs(t)
	ifaces := interfacesInReach(pkgs)
	used, set := callersAndSetters(pkgs)
	reach := reachableTypes(used)

	inUse := func(obj types.Object) bool {
		named, _ := obj.Type().(*types.Named)
		switch obj.(type) {
		case *types.TypeName:
			return used[obj] || reach[named]
		case *types.Const:
			if named != nil && named.Obj().Pkg() == obj.Pkg() {
				return used[obj] || used[named.Obj()] || reach[named]
			}
		}
		return used[obj]
	}
	satisfiesInterface := func(named *types.Named, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	var unused, unset []string
	for _, p := range pkgs {
		if p.types.Name() == "main" || testSupportPkgs[p.rel] {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !inUse(obj) {
				unused = append(unused, auditName(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] && !satisfiesInterface(named, m.Name()) {
					unused = append(unused, auditName(m))
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !(strings.HasSuffix(name, "Options") || configStructs[p.rel+"."+name]) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset = append(unset, p.rel+"."+name+"."+f.Name())
				}
			}
		}
	}
	report(t, "exported name with no non-test caller outside its package", unused, unusedExportAllow)
	report(t, "option field with no non-test setter outside its package", unset, unsetFieldAllow)
}

// report fails on each finding the allowlist does not name, and on each
// allowlist entry that names no finding or gives no reason.
func report(t *testing.T, what string, found []string, allow map[string]string) {
	t.Helper()
	sort.Strings(found)
	hit := map[string]bool{}
	for _, name := range found {
		hit[name] = true
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: %s", what, name)
		}
	}
	for name, reason := range allow {
		if !hit[name] {
			t.Errorf("allowlist entry %s matches no %s; remove it", name, what)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
	}
}

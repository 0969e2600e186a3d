package cfdprop_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists the exports under internal/ that no non-test code
// uses but that stay, each with its reason.
var surfaceAllowed = map[string]string{
	"cfdprop/internal/implication.Equivalent":       "oracle: other packages' tests compare covers by equivalence",
	"cfdprop/internal/implication.InfiniteUniverse": "fixture: other packages' tests build implication universes with it",
	"cfdprop/internal/sym.State.Save":               "oracle: the chase's undo-journal tests compare Rewind against snapshots",
	"cfdprop/internal/sym.State.Restore":            "oracle: the chase's undo-journal tests compare Rewind against snapshots",
	"cfdprop/internal/sym.State.Version":            "oracle: the reference chase in implication's tests detects its fixpoint by it",
	"cfdprop/internal/cfd.DatabaseSatisfies":        "oracle: counterexample checks in other packages' tests",
	"cfdprop/internal/cfd.Min":                      "oracle: core's string reference of the cover tail merges patterns under ⊕ with it",
	"cfdprop/internal/cfd.CFD.Rename":               "oracle: core's string reference of the cover tail renames source CFDs along atoms with it",
	"cfdprop/internal/algebra.SPC.Fragment":         "fixture: other packages' tests assert a view's fragment",
	"cfdprop/internal/chase.Inst.Rows":              "oracle: propagation's tests read the chased instance",
	"cfdprop/internal/rel.Instance.MustInsert":      "fixture: other packages' tests build instances with it",
	"cfdprop/internal/rel.Instance.Value":           "fixture: other packages' tests read instances with it",
	"cfdprop/internal/rel.Tuple.Equal":              "oracle: other packages' tests compare tuples",
	"cfdprop/internal/daemon.Client.PutSigma":       "program API: the client's half of PUT /v1/universe/{fp}/sigma",
	"cfdprop/internal/daemon.Client.Ready":          "program API: the client's half of GET /readyz",
	"cfdprop/internal/daemon.Server.Draining":       "program API: reports the drain state the drain tests assert",
	"cfdprop/internal/faultinject.Reset":            "fixture: the tagged crash suites clear rules between schedules",
	"cfdprop/internal/faultinject.Enabled":          "fixture: the tagged crash suites skip when the layer is compiled out",
	"cfdprop/internal/faultinject.Install":          "fixture: the tagged crash suites arm their faults with it",
	"cfdprop/internal/faultinject.Hits":             "oracle: the tagged crash suites count site visits with it",
	"cfdprop/internal/faultinject.None":             "fixture: the tagged crash suites arm count-only rules with it",
}

// surfaceExempt names methods that satisfy standard-library interfaces,
// which callers reach through the interface rather than by name.
var surfaceExempt = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalText": true, "UnmarshalText": true,
}

// TestInternalSurfaceHasCallers fails when an exported identifier declared
// in a non-test file under internal/ has no use in non-test code. Every
// package here is internal, so its only callers are the module's programs
// (cmd/, examples/ and the perfbench/ module) and tests; an export that
// only tests call is test scaffolding in a program file. The module is
// type-checked from source under each build configuration the tests use,
// and an identifier counts as used when any configuration uses it.
func TestInternalSurfaceHasCallers(t *testing.T) {
	// The source importer reads build.Default; with cgo off it type-checks
	// the pure-Go variants of the standard library and never runs cgo.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	dirs := surfaceDirs(t)
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, tags := range [][]string{nil, {"faultinject"}} {
		l := &surfaceLoader{fset: fset, std: std, tags: tags, pkgs: map[string]*types.Package{}, t: t,
			info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
		for _, dir := range dirs {
			l.check(filepath.ToSlash(dir))
		}
		for id, obj := range l.info.Defs {
			if key := surfaceKey(obj); key != "" {
				if _, seen := declared[key]; !seen {
					declared[key] = fset.Position(id.Pos())
				}
			}
		}
		for _, obj := range l.info.Uses {
			if key := surfaceKey(obj); key != "" {
				used[key] = true
			}
		}
	}
	var missing []string
	for key, pos := range declared {
		if used[key] {
			if _, ok := surfaceAllowed[key]; ok {
				t.Errorf("%s is allowlisted but non-test code now uses it: drop the entry", key)
			}
			continue
		}
		if _, ok := surfaceAllowed[key]; !ok {
			missing = append(missing, pos.String()+": "+key)
		}
	}
	for key := range surfaceAllowed {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s is allowlisted but no longer declared: drop the entry", key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported but used only by tests: %s", m)
	}
}

// surfaceDirs lists the module's package directories, the perfbench/
// module's included, relative to the repository root.
func surfaceDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// surfaceLoader type-checks the module's packages from their non-test
// files under one set of build tags. Import path cfdprop/x is directory x;
// perfbench/'s module path, cfdprop/perfbench, follows the same rule.
type surfaceLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	tags []string
	pkgs map[string]*types.Package
	info *types.Info // shared by every package this loader checks
	t    *testing.T
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *surfaceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "cfdprop" || strings.HasPrefix(path, "cfdprop/") {
		return l.check(strings.TrimPrefix(strings.TrimPrefix(path, "cfdprop"), "/")), nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// check type-checks the package in dir (relative to the root) once and
// returns it, or nil when dir holds no Go files for these tags.
func (l *surfaceLoader) check(dir string) *types.Package {
	if dir == "" {
		dir = "."
	}
	if p, ok := l.pkgs[dir]; ok {
		return p
	}
	l.pkgs[dir] = nil
	ctxt := build.Default
	ctxt.BuildTags = l.tags
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		l.t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	path := "cfdprop"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s (tags %v): %v", path, l.tags, err)
	}
	l.pkgs[dir] = p
	return p
}

// surfaceKey names an exported package-level object or method declared
// under internal/, or returns "" for anything else: fields, locals,
// unexported names and the exempt interface methods.
func surfaceKey(obj types.Object) string {
	if obj == nil || !obj.Exported() || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "cfdprop/internal/") {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	if fn, ok := obj.(*types.Func); ok {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return prefix + fn.Name()
		}
		if surfaceExempt[fn.Name()] {
			return ""
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return "" // a method of an interface literal
		}
		return prefix + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return prefix + obj.Name()
}

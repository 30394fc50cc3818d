package factorml

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The guards in this file read the module's non-test Go code type-checked,
// so that each identifier is the object it denotes: a method is told apart
// from every other method of its name, an import renamed or reached through
// a facade alias is still the package it is, and a settings field is the
// field of its struct whatever the literal's spelling.

// sourceTree is every non-test Go file of the module (the root, internal/,
// cmd/ and examples/) plus benchmark/'s main package, each directory
// type-checked as one package. benchmark/ is a nested module; it is checked
// against the same packages, so its uses resolve to the same objects.
type sourceTree struct {
	fset *token.FileSet
	pkgs []*sourcePkg // each after the packages it imports
}

// sourcePkg is one type-checked directory.
type sourcePkg struct {
	dir   string // slash-separated, relative to the module root; "." is the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// internal reports whether p is under internal/.
func (p *sourcePkg) internal() bool { return strings.HasPrefix(p.dir, "internal/") }

// bench reports whether p is benchmark/: a caller that is not the program.
func (p *sourcePkg) bench() bool { return p.dir == "benchmark" }

func importPath(dir string) string {
	if dir == "." {
		return "factorml"
	}
	return "factorml/" + dir
}

// loadSourceTree parses and type-checks the tree once per test binary.
var loadSourceTree = sync.OnceValues(func() (*sourceTree, error) {
	tree := &sourceTree{fset: token.NewFileSet()}
	byPath := make(map[string]*sourcePkg)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(tree.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := byPath[importPath(dir)]
		if p == nil {
			p = &sourcePkg{dir: dir}
			byPath[importPath(dir)] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std, err := stdImporter(tree.fset, byPath)
	if err != nil {
		return nil, err
	}
	var check func(p *sourcePkg) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return check(p)
		}
		return std.Import(path)
	})}
	check = func(p *sourcePkg) (*types.Package, error) {
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := conf.Check(importPath(p.dir), tree.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
		tree.pkgs = append(tree.pkgs, p)
		return pkg, nil
	}
	for _, path := range slices.Sorted(maps.Keys(byPath)) {
		if _, err := check(byPath[path]); err != nil {
			return nil, err
		}
	}
	return tree, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter reads the packages outside the module from the compiler's
// export data, which one `go list -export` call locates (and builds, when
// the build cache lacks it) for every such package the tree imports.
func stdImporter(fset *token.FileSet, module map[string]*sourcePkg) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	seen := map[string]bool{"unsafe": true}
	for _, p := range module {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if module[path] == nil && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("go list found no export data for %s", path)
		}
		return os.Open(export[path])
	}), nil
}

func sourceTreeOf(t *testing.T) *sourceTree {
	t.Helper()
	tree, err := loadSourceTree()
	if err != nil {
		t.Fatalf("type-checking the module (run from the module root): %v", err)
	}
	return tree
}

// origin maps a method or field of an instantiated generic type to the one
// its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// callers records which non-test code refers to an object.
type callers struct{ program, bench bool }

// callersOf maps every object the tree refers to onto its callers. A
// reference inside the object's own declaration (a recursive call, a
// constant's own spec) or naming a method's receiver type is no caller.
func (tree *sourceTree) callersOf() map[types.Object]callers {
	own := make(map[types.Object]ast.Node) // package-level object or method -> its declaration
	recv := make(map[*ast.Ident]bool)
	for _, p := range tree.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[p.info.Defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[p.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own[p.info.Defs[n]] = s
							}
						}
					}
				}
			}
		}
	}
	by := make(map[types.Object]callers)
	for _, p := range tree.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d := own[obj]; recv[id] || d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			c := by[obj]
			if p.bench() {
				c.bench = true
			} else {
				c.program = true
			}
			by[obj] = c
		}
	}
	return by
}

// interfaceMethods indexes by method name every interface declared in the
// module or in a package it imports, and error.
func (tree *sourceTree) interfaceMethods() map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(it *types.Interface) {
		for m := range it.Methods() {
			byName[m.Name()] = append(byName[m.Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	for _, p := range tree.pkgs {
		for _, pkg := range append(p.types.Imports(), p.types) {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
						add(it)
					}
				}
			}
		}
	}
	return byName
}

// facadeTypes returns the named types a user of the facade sees: those
// that appear in the signature of an exported root function, or in an
// exported field or method signature of an exported root type, of the type
// a root alias denotes, or of a module type seen so.
func facadeTypes(root *types.Package) map[types.Type]bool {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	members := func(named *types.Named) {
		walk(named.Underlying())
		for m := range named.Methods() {
			if m.Exported() {
				walk(m.Type())
			}
		}
	}
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if !seen[t] {
				seen[t] = true
				if pkg := t.Obj().Pkg(); pkg != nil && strings.HasPrefix(pkg.Path()+"/", "factorml/") {
					members(t)
				}
			}
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
			for v := range t.Params().Variables() {
				walk(v.Type())
			}
			for v := range t.Results().Variables() {
				walk(v.Type())
			}
		case *types.Struct:
			for f := range t.Fields() {
				if f.Exported() {
					walk(f.Type())
				}
			}
		}
	}
	for _, name := range root.Scope().Names() {
		switch obj := root.Scope().Lookup(name).(type) {
		case *types.Func:
			walk(obj.Type())
		case *types.TypeName:
			if named, ok := types.Unalias(obj.Type()).(*types.Named); ok && obj.Exported() {
				members(named)
			}
		}
	}
	return seen
}

// unreferencedOK lists the exported objects under internal/ that no
// program code refers to, kept on purpose, each with its reason: facade
// API reached through a root alias. Keys are package.Name or
// package.Type.Method. The list may only shrink.
var unreferencedOK = map[string]string{
	"gmm.Model.BIC":      "model selection on a GMMModel",
	"gmm.Model.AIC":      "model selection on a GMMModel",
	"gmm.Model.LogProb":  "a GMMModel's density at one joined row; benchmark/ times it",
	"plan.Plan.Estimate": "a StrategyPlan's estimate for one Algorithm; benchmark/ reads it",
}

// benchmarkOnlyOK lists the exported objects under internal/ that only
// benchmark/ refers to, each tagged with the ROADMAP item whose benchmark
// change removes its last caller there: item 1 (the gate and ledger) or
// item 14 (the harness measures through the product's surface). The
// program never runs them. The list may only shrink.
var benchmarkOnlyOK = map[string]string{
	"gmm.TrainF":                     "item 1: waiting on benchmark/layers.go's training probes",
	"nn.TrainF":                      "item 1: waiting on benchmark/layers.go's training probes",
	"gmm.Scorer.EStepBenchHooks":     "item 1: gmm/bench_hooks.go, waiting on benchmark/layers.go's fused/unfused E-step probe",
	"factor.NewStreamedSource":       "item 14: the S scan probe becomes a Benchmark* in internal/factor",
	"factor.StreamedSource.Scan":     "item 14: the S scan probe becomes a Benchmark* in internal/factor",
	"factor.MaterializedSource.Scan": "item 14: the M scan probe becomes a Benchmark* in internal/factor",
	"join.ResidentIndex.Lookup":      "item 14: the resident-index lookup probe becomes a Benchmark* in internal/join",
	"serve.Engine.PredictInto":       "item 14: the engine probe reads the running server's telemetry",
	"serve.DecodeBinaryResponse":     "item 14: the load client decodes the binary wire through the product's surface",
}

// facadeOK lists the exported root identifiers that no program of the
// module (the root's other code, cmd/, examples/) refers to: library API
// that only tests and benchmark/ call, each with its reason. The list may
// only shrink.
var facadeOK = map[string]string{
	"factorml.GenerateSynthetic":        "the synthetic star schema through the facade; cmd/datagen builds it through internal/data",
	"factorml.GenerateRealShape":        "the paper's real-dataset shapes through the facade; cmd/datagen builds them through internal/data",
	"factorml.RealDatasetShapes":        "the shapes GenerateRealShape accepts; cmd/datagen -list reads internal/data",
	"factorml.DB.LoadGMM":               "the registry's load half; benchmark/ reloads every refreshed version",
	"factorml.DB.LoadNN":                "the registry's load half; benchmark/ reloads every refreshed version",
	"factorml.DB.DeleteModel":           "the registry's delete; DELETE /v1/models/{name} serves the same",
	"factorml.DimensionTable.NumTuples": "a table's size",
	"factorml.DimensionTable.Flush":     "persists appended tuples; benchmark/ flushes what it loads",
	"factorml.FactTable.Name":           "a table's catalog name",
	"factorml.FactTable.NumTuples":      "a table's size; benchmark/ checks the recovered fact count",
	"factorml.Server.ModelHealth":       "GET /v1/models/{name}/health in process",
	"factorml.DB.NewStream":             "the in-process change feed; cmd/serve builds its stream through WithStream",
	"factorml.Stream.AttachGMM":         "the in-process change feed",
	"factorml.Stream.AttachNN":          "the in-process change feed",
	"factorml.Stream.Ingest":            "the in-process change feed; POST /v1/ingest serves the same",
	"factorml.Stream.Refresh":           "the in-process change feed; POST /v1/refresh serves the same",
	"factorml.Stream.Pending":           "the in-process change feed",
	"factorml.Stream.GMM":               "the in-process change feed; benchmark/ reads the served models through Server.Stream",
	"factorml.Stream.NN":                "the in-process change feed; benchmark/ reads the served models through Server.Stream",
	"factorml.Stream.Counters":          "the in-process change feed; benchmark/ reads its checkpoint count",
	"factorml.Stream.Checkpoint":        "the in-process change feed; benchmark/ times one checkpoint",
}

// TestInternalPackagesAreReached fails when code is run only by tests. An
// exported package-level object or method under internal/ or in the root
// must be referred to by some non-test code other than its own declaration
// (benchmark/ is a caller, not the program: an object only it refers to
// must sit on benchmarkOnlyOK, one nothing refers to on unreferencedOK or,
// in the root, facadeOK). A method whose type implements an interface with
// that method (declared in the module, in a package it imports, or error)
// is reached through the interface. A root type alias or constant is also
// reached when its type appears in an exported facade signature or field.
// Every package under internal/ must be imported from outside itself.
//
// It also fails when cmd/train/main.go reaches below the public facade,
// which it was rewritten on so that the CLI cannot drift from the library
// again, when internal/parallel imports anything under internal/ (the
// scheduler knows nothing of flops or tuples), and when code under
// internal/ outside internal/serve uses a sync.Pool: the training and
// absorb passes recycle their state through the chunk lifecycle, whose
// allocation counts stay exact under the race detector. Last, it fails when
// the root package or code under internal/ other than internal/durable
// calls os.Rename, os.WriteFile, os.Create or os.CreateTemp: every
// persisted file is replaced through internal/durable, which alone knows
// the write, fsync, close, rename, directory-fsync order (cmd/'s report
// writers hold no durable state).
func TestInternalPackagesAreReached(t *testing.T) {
	tree := sourceTreeOf(t)
	imported := make(map[string]bool) // package under internal/ -> imported from outside itself
	for _, p := range tree.pkgs {
		for _, imp := range p.types.Imports() {
			if imp.Path() != importPath(p.dir) {
				imported[imp.Path()] = true
			}
		}
		for _, f := range p.files {
			name := filepath.ToSlash(tree.fset.File(f.Pos()).Name())
			for _, imp := range f.Imports {
				to, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(to, "factorml/internal/") {
					continue
				}
				if name == "cmd/train/main.go" {
					t.Errorf("cmd/train/main.go imports %s; it is written on the public facade", to)
				}
				if p.dir == "internal/parallel" {
					t.Errorf("%s imports %s; internal/parallel schedules work and knows nothing about it", name, to)
				}
			}
		}
		persists := (p.internal() || p.dir == ".") && p.dir != "internal/durable"
		for id, obj := range p.info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "sync.Pool":
				if p.internal() && p.dir != "internal/serve" {
					t.Errorf("%s uses a sync.Pool; a chunked pass's state travels with its chunk (internal/parallel), and only internal/serve pools request-scoped buffers", tree.fset.Position(id.Pos()))
				}
			case "os.Rename", "os.WriteFile", "os.Create", "os.CreateTemp":
				if persists {
					t.Errorf("%s calls os.%s; persist files through internal/durable", tree.fset.Position(id.Pos()), obj.Name())
				}
			}
		}
	}

	by := tree.callersOf()
	ifaces := tree.interfaceMethods()
	var root *types.Package
	for _, p := range tree.pkgs {
		if p.dir == "." {
			root = p.types
		}
	}
	inFacade := facadeTypes(root)
	// reached reports whether the program runs obj; the rest falls to the
	// allowlists.
	reached := func(obj types.Object) bool {
		if by[obj].program {
			return true
		}
		switch obj := obj.(type) {
		case *types.Func:
			if recv := obj.Signature().Recv(); recv != nil {
				for _, it := range ifaces[obj.Name()] {
					if types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it) {
						return true
					}
				}
			}
		case *types.TypeName:
			return obj.Pkg() == root && obj.IsAlias() && inFacade[types.Unalias(obj.Type())]
		case *types.Const:
			return obj.Pkg() == root && inFacade[obj.Type()]
		}
		return false
	}
	declared := make(map[string]bool)
	for _, p := range tree.pkgs {
		if !p.internal() && p.dir != "." {
			continue
		}
		if p.internal() && !imported[importPath(p.dir)] {
			t.Errorf("%s is imported by no non-test file outside itself", importPath(p.dir))
		}
		check := func(key string, obj types.Object) {
			declared[key] = true
			_, unref := unreferencedOK[key]
			_, benchOnly := benchmarkOnlyOK[key]
			if p.dir == "." {
				_, unref = facadeOK[key]
			}
			switch run := reached(obj); {
			case run && (unref || benchOnly):
				t.Errorf("%s is run by the program; drop it from its allowlist", key)
			case run || unref:
			case !by[obj].bench:
				t.Errorf("%s (%s) is exported but no non-test code refers to it", key, tree.fset.Position(obj.Pos()))
			case !benchOnly:
				t.Errorf("%s (%s) is exported but only benchmark/ refers to it: the program never runs it", key, tree.fset.Position(obj.Pos()))
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.types.Name() + "." + name
			if obj.Exported() {
				check(key, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				for m := range tn.Type().(*types.Named).Methods() {
					if m.Exported() {
						check(key+"."+m.Name(), m)
					}
				}
			}
		}
	}
	for _, list := range []struct {
		name  string
		names map[string]string
		max   int
	}{{"unreferencedOK", unreferencedOK, 4}, {"benchmarkOnlyOK", benchmarkOnlyOK, 9}, {"facadeOK", facadeOK, 21}} {
		if len(list.names) > list.max {
			t.Errorf("%s holds %d names, want <= %d: it may only shrink", list.name, len(list.names), list.max)
		}
		for key := range list.names {
			if !declared[key] {
				t.Errorf("%s names %s, which is no longer declared", list.name, key)
			}
		}
	}
	for key, tag := range benchmarkOnlyOK {
		if !strings.HasPrefix(tag, "item 1: ") && !strings.HasPrefix(tag, "item 14: ") {
			t.Errorf("benchmarkOnlyOK[%s] = %q: tag it with the ROADMAP item that removes it (\"item 1: …\" or \"item 14: …\")", key, tag)
		}
	}
}

// TestOneExpAndLog fails when a non-test file outside internal/linalg calls
// math.Exp or math.Log. The program's exp and log are linalg.ExpInto and
// linalg.Log: plain Go with every product rounded, so a model's bits do
// not depend on the assembly math.Exp and math.Log have on some
// architectures (scripts/nofma.sh checks the kernels' cross-compiles).
// examples/ is exempt: those mains are written against the public facade
// as a user's program would be, and an exp there draws synthetic inputs,
// not model bits. The architecture skips of TestGoldenBits and
// TestStarNNBytesPinned stay, because the other kernels still fuse
// multiply-adds off amd64.
func TestOneExpAndLog(t *testing.T) {
	tree := sourceTreeOf(t)
	for _, p := range tree.pkgs {
		if p.dir == "internal/linalg" || strings.HasPrefix(p.dir, "examples/") {
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "math" && (fn.Name() == "Exp" || fn.Name() == "Log") {
				t.Errorf("%s uses math.%s; call linalg.ExpInto / linalg.Log, whose bits are the same on every architecture", tree.fset.Position(id.Pos()), fn.Name())
			}
		}
	}
}

// unsetKnobOK lists the settings no non-test file sets on purpose, each
// with its reason. Everything else TestEveryKnobHasACaller checks must be
// set by some caller.
var unsetKnobOK = map[string]string{
	"monitor.Config.MinWindowRows": "tests in three packages shrink the drift evidence floor to keep their data small",
	"nn.Config.ShuffleSeed":        "the paper's per-epoch key permutation (§VI), library API",
	"plan.Options.FlopsPerPage":    "benchmark/ builds plan.Options; the clock-calibrated planner replaces the field",
	"data.SynthConfig.Clusters":    "the GMM quality tests' generator shape",
	"data.SynthConfig.Noise":       "the GMM quality tests' generator shape",
	"wal.Options.SegmentBytes":     "the WAL rotation tests",
	"gmm.Config.Init":              "the one-step warm-start EM oracle TestStreamStatsOracle checks every stream refresh against",
	"gmm.Config.Diagonal":          "GMMConfig.Diagonal, the one way to ask for a diagonal-covariance mixture (library API); TestGoldenBits pins its bits",
}

// isKnobType reports whether a struct type's name marks it as settings.
func isKnobType(name string) bool {
	return name == "Limits" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// TestEveryKnobHasACaller fails when an exported field of a settings
// struct (a type named …Config, …Options, …Policy or Limits, declared in
// a non-test file of the root package or under internal/) is set in no
// non-test file other than its own: a composite-literal key or an
// assignment target that resolves to that field, in the module,
// benchmark/, cmd/ or examples/. A knob only tests turn is a second
// behaviour nothing runs; its value belongs in a constant.
func TestEveryKnobHasACaller(t *testing.T) {
	tree := sourceTreeOf(t)
	declared := make(map[*types.Var]string) // field -> "pkg.Type.Field"
	for _, p := range tree.pkgs {
		if !p.internal() && p.dir != "." {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isKnobType(name) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for f := range st.Fields() {
					if f.Exported() {
						declared[f] = p.types.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no settings struct")
	}
	t.Logf("%d exported settings fields", len(declared))
	set := make(map[*types.Var]bool)
	for _, p := range tree.pkgs {
		for _, f := range p.files {
			mark := func(id *ast.Ident) {
				if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
					v = v.Origin()
					if tree.fset.File(v.Pos()) != tree.fset.File(id.Pos()) {
						set[v] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						mark(key)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							mark(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	names := make(map[string]bool)
	for _, field := range slices.SortedFunc(maps.Keys(declared), func(a, b *types.Var) int { return strings.Compare(declared[a], declared[b]) }) {
		knob := declared[field]
		names[knob] = true
		_, allowed := unsetKnobOK[knob]
		switch {
		case !set[field] && !allowed:
			t.Errorf("%s (%s) is set by no non-test file: make it a constant or give it a caller", knob, tree.fset.Position(field.Pos()).Filename)
		case set[field] && allowed:
			t.Errorf("%s is set by non-test code; drop it from the allowlist", knob)
		}
	}
	for knob := range unsetKnobOK {
		if !names[knob] {
			t.Errorf("the allowlist names %s, which is no longer declared", knob)
		}
	}
}

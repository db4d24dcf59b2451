package dare_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goFile is one parsed Go file and its slash-separated path from the
// module root.
type goFile struct {
	path string
	ast  *ast.File
}

func (f goFile) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// nonTestIn reports whether f is a non-test file of the package in dir.
func (f goFile) nonTestIn(dir string) bool { return !f.isTest() && path.Dir(f.path) == dir }

// hookGateFset positions every file the gate parses, the tree's and the
// planted ones.
var hookGateFset = token.NewFileSet()

// source is one planted Go file: its text and its path from the module
// root.
type source struct{ path, src string }

// plant is a set of sources that together break a rule when they join
// the tree.
type plant []source

// hookGateRule is one design rule the tree keeps. check returns one
// "path:line: what" line per breach; why says what to do instead.
type hookGateRule struct {
	name, why string
	check     func(files []goFile) []string
	plants    []plant
}

// hookGateRules are the design rules no compiler enforces. Each row also
// runs against its planted sources, every one of which must break it.
var hookGateRules = []hookGateRule{
	{
		name: "observer hooks only in internal/event",
		why:  "an ad-hoc observer hook is back: use the internal/event bus instead",
		check: func(files []goFile) []string {
			return breaches(files, func(f goFile) bool { return !strings.HasPrefix(f.path, "internal/event/") }, func(n ast.Node) string {
				if id, ok := n.(*ast.Ident); ok && (strings.Contains(id.Name, "ReplicaListener") || strings.Contains(id.Name, "ReplicationHook")) {
					return id.Name
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/dfs/hook.go", "package dfs\n\ntype ReplicaListener interface{ OnReplica(b BlockID) }\n"}},
			{{"internal/mapreduce/hook_test.go", "package mapreduce\n\nvar _ = func(h myReplicationHook) {}\n"}},
		},
	},
	{
		name: "no reflect or unsafe outside tests",
		why:  "production code imports reflect or unsafe: keep state plain (RNG images read internal/stats/rngsource.go fields)",
		check: func(files []goFile) []string {
			return breaches(files, func(f goFile) bool { return !f.isTest() }, func(n ast.Node) string {
				if imp, ok := n.(*ast.ImportSpec); ok && (imp.Path.Value == `"reflect"` || imp.Path.Value == `"unsafe"`) {
					return "imports " + imp.Path.Value
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/sim/fast.go", "package sim\n\nimport \"unsafe\"\n\nvar _ = unsafe.Sizeof(0)\n"}},
			{{"cmd/dare-sim/dump.go", "package main\n\nimport (\n\t\"fmt\"\n\tr \"reflect\"\n)\n\nvar _ = fmt.Sprint(r.TypeOf(0))\n"}},
		},
	},
	{
		name: "no two-sided state codecs outside tests",
		why:  "a retired two-sided state codec is back: describe the state once as a walk over a snapshot.Walker (WalkState/WalkTag)",
		check: func(files []goFile) []string {
			codecs := []string{"EncodeState", "DecodeState", "EncodeRuleState", "DecodeRuleState", "EncodeTag"}
			return breaches(files, func(f goFile) bool { return !f.isTest() }, func(n ast.Node) string {
				if id, ok := n.(*ast.Ident); ok && slices.Contains(codecs, id.Name) {
					return id.Name
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/dfs/codec.go", "package dfs\n\nfunc (nn *NameNode) EncodeState() []byte { return nil }\n"}},
			{{"internal/policy/codec.go", "package policy\n\ntype stateful interface {\n\tDecodeRuleState(b []byte) error\n}\n"}},
		},
	},
	{
		name: "node lifecycle calls only in internal/mapreduce/lifecycle.go",
		why:  "a node death or rejoin bypasses the lifecycle: go through nodeDown/nodeUp (declareDead/declareUp, boot)",
		check: func(files []goFile) []string {
			return breaches(files, func(f goFile) bool {
				return f.nonTestIn("internal/mapreduce") && f.path != "internal/mapreduce/lifecycle.go"
			}, func(n ast.Node) string {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return ""
				}
				switch on := lastName(sel.X); {
				case on == "NN" && slices.Contains([]string{"FailNode", "ReRegisterNode"}, sel.Sel.Name),
					on == "hb" && (sel.Sel.Name == "Stop" || sel.Sel.Name == "Resume"):
					return on + "." + sel.Sel.Name
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/mapreduce/kill.go", "package mapreduce\n\nfunc (t *Tracker) kill(n *Node) { t.c.NN.FailNode(n.ID) }\n"}},
			{{"internal/mapreduce/pause.go", "package mapreduce\n\nfunc (t *Tracker) pause(n *Node) {\n\tt.hb.\n\t\tStop(n.ID)\n}\n"}},
			{{"internal/mapreduce/rejoin.go", "package mapreduce\n\nfunc (t *Tracker) rejoin(n *Node) { _, _ = t.c.NN.ReRegisterNode(n.ID, nil) }\n"}},
		},
	},
	{
		name: "one tagged deferral, in internal/mapreduce/actions.go",
		why:  "a tagged deferral bypasses Tracker.deferTag: make the event a deferral (check/fire plus its tag) and schedule it through deferTag or after",
		check: func(files []goFile) []string {
			calls := breaches(files, func(f goFile) bool { return f.nonTestIn("internal/mapreduce") }, func(n ast.Node) string {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "DeferTag" || sel.Sel.Name == "DeferAtTag") {
					return sel.Sel.Name
				}
				return ""
			})
			if len(calls) == 1 && strings.HasPrefix(calls[0], "internal/mapreduce/actions.go:") {
				return nil
			}
			return append(calls, fmt.Sprintf("internal/mapreduce: %d DeferTag/DeferAtTag calls, want exactly one, in actions.go", len(calls)))
		},
		plants: []plant{
			{{"internal/mapreduce/later.go", "package mapreduce\n\nfunc (t *Tracker) later(d deferral) { t.c.Eng.DeferTag(1, d, t.bind(d)) }\n"}},
		},
	},
	{
		name: "one replica capture path, in internal/core/cache.go",
		why:  "a second replica capture path: add a victim order or a rule to core.ReplicaCache instead",
		check: func(files []goFile) []string {
			return breaches(files, func(f goFile) bool {
				return f.nonTestIn("internal/core") && f.path != "internal/core/cache.go"
			}, func(n ast.Node) string {
				fn, ok := n.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Type.Results == nil {
					return ""
				}
				for _, res := range fn.Type.Results.List {
					typ := res.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok && id.Name == "Decision" {
						return "method " + fn.Name.Name + " returns a Decision"
					}
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/core/capture.go", "package core\n\nfunc (m *Manager) capture(b dfs.BlockID) Decision { return Decision{} }\n"}},
			{{"internal/core/multiline.go", "package core\n\nfunc (m *Manager) capture(\n\tb dfs.BlockID,\n\tlocal bool,\n) Decision {\n\treturn Decision{}\n}\n"}},
			{{"internal/core/witherr.go", "package core\n\nfunc (m *Manager) capture(b dfs.BlockID) (Decision, error) { return Decision{}, nil }\n"}},
			{{"internal/core/named.go", "package core\n\nfunc (m *Manager) capture() (n int, d *Decision) { return 0, nil }\n"}},
		},
	},
	{
		name: "a run is wired only in internal/runner/runner.go",
		why:  "a second world builder: describe the run as runner.Options and build it with newRunState",
		check: func(files []goFile) []string {
			ctors := map[string][]string{"mapreduce": {"NewCluster", "NewTracker"}, "core": {"NewManager", "NewScarlett"}}
			return breaches(files, func(f goFile) bool {
				return !f.isTest() && (strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "cmd/")) &&
					f.path != "internal/runner/runner.go"
			}, func(n ast.Node) string {
				if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(ctors[lastName(sel.X)], sel.Sel.Name) {
					return lastName(sel.X) + "." + sel.Sel.Name
				}
				return ""
			})
		},
		plants: []plant{
			{{"internal/runner/study.go", "package runner\n\nfunc study(o Options) { _, _ = mapreduce.NewCluster(o.Profile, o.Seed) }\n"}},
			{{"cmd/dare-bench/world.go", "package main\n\nvar _ = core.NewManager\n"}},
		},
	},
	{
		name: "the tracker's one bus component is its invariant checker",
		why:  "a tracker component hears the tracker's own events on the bus: call it directly after the publish (only the invariant checker, which just observes, subscribes)",
		check: func(files []goFile) []string {
			calls := 0
			out := breaches(files, func(f goFile) bool { return f.nonTestIn("internal/mapreduce") }, func(n ast.Node) string {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); !ok || id.Name != "subscribe" || len(n.Args) != 2 {
						return ""
					}
					calls++
					if sel, ok := n.Args[1].(*ast.SelectorExpr); ok && lastName(sel.X) == "t" && sel.Sel.Name == "checker" {
						return ""
					}
					return "subscribe(…, " + lastName(n.Args[1]) + ")"
				case *ast.FuncDecl:
					if n.Recv == nil || n.Name.Name != "HandleEvent" {
						return ""
					}
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if name := lastName(recv); name != "invariantChecker" {
						return "HandleEvent on " + name
					}
				}
				return ""
			})
			if calls != 1 {
				out = append(out, fmt.Sprintf("internal/mapreduce: %d subscribe calls, want exactly one, with t.checker", calls))
			}
			return out
		},
		plants: []plant{
			{{"internal/mapreduce/spechear.go", "package mapreduce\n\nfunc (s *speculator) HandleEvent(ev event.Event) {}\n"}},
			{{"internal/mapreduce/faultbus.go", "package mapreduce\n\nfunc (t *Tracker) hearFaults() { subscribe(t.bus, t.faults) }\n"}},
		},
	},
	{
		name:  "every func in internal/ has a non-test caller",
		why:   "production code that only tests call: delete it and test the production path, or move it (an accessor into the package's export_test.go)",
		check: testOnlyFuncs,
		plants: []plant{
			{
				{"internal/sim/peek.go", "package sim\n\nfunc (e *Engine) Peek() uint64 { return e.Processed() }\n"},
				{"internal/sim/peek_test.go", "package sim\n\nimport \"testing\"\n\nfunc TestPeek(t *testing.T) { _ = NewEngine().Peek() }\n"},
			},
			{{"internal/stats/sum.go", "package stats\n\nfunc Sum(xs []float64) float64 { return 0 }\n"}},
			{
				{"internal/stats/mean.go", "package stats\n\nfunc mean(xs []float64) float64 { return 0 }\n"},
				{"internal/stats/mean_test.go", "package stats\n\nimport \"testing\"\n\nfunc TestMean(t *testing.T) { _ = mean(nil) }\n"},
			},
		},
	},
}

// TestHookGate checks the design rules on the syntax tree of every Go
// file of the repository (the perfbench module included; testdata and
// dot directories skipped, as the go tool skips them), then shows that
// each rule's planted sources break it: some breach must name a planted
// file.
func TestHookGate(t *testing.T) {
	var tree []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(hookGateFset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tree = append(tree, goFile{path: filepath.ToSlash(p), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) < 100 {
		t.Fatalf("parsed only %d Go files; run from the module root", len(tree))
	}
	for _, r := range hookGateRules {
		t.Run(r.name, func(t *testing.T) {
			if got := r.check(tree); len(got) > 0 {
				t.Errorf("%s\n%s", strings.Join(got, "\n"), r.why)
			}
			for _, p := range r.plants {
				planted := slices.Clip(tree)
				for _, s := range p {
					f, err := parser.ParseFile(hookGateFset, s.path, s.src, parser.SkipObjectResolution)
					if err != nil {
						t.Fatal(err)
					}
					planted = append(planted, goFile{path: s.path, ast: f})
				}
				if got := r.check(planted); !slices.ContainsFunc(got, func(line string) bool {
					return slices.ContainsFunc(p, func(s source) bool { return strings.HasPrefix(line, s.path+":") })
				}) {
					t.Errorf("no breach names planted %v:\n%s", p, strings.Join(got, "\n"))
				}
			}
		})
	}
}

// breaches inspects every file keep selects and reports each node find
// names as "path:line: name".
func breaches(files []goFile, keep func(goFile) bool, find func(ast.Node) string) []string {
	var out []string
	for _, f := range files {
		if !keep(f) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if what := find(n); what != "" {
				out = append(out, fmt.Sprintf("%s:%d: %s", f.path, hookGateFset.Position(n.Pos()).Line, what))
			}
			return true
		})
	}
	return out
}

// stdImporter type-checks the standard library from source. Every check
// of the tree shares it, so only the first pays for the library.
var stdImporter = importer.ForCompiler(hookGateFset, "source", nil)

// treeImporter type-checks the tree's packages from their non-test files
// as they are imported, and hands the rest to stdImporter.
type treeImporter struct {
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *treeImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := im.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := im.files[p]
	if !ok {
		return stdImporter.Import(p)
	}
	pkg, err := (&types.Config{Importer: im}).Check(p, hookGateFset, files, im.info)
	im.pkgs[p] = pkg
	return pkg, err
}

// testOnlyFuncs type-checks the non-test files of every package and
// names each function or method in internal/, exported or not, that no
// non-test file references. Exempt are methods whose name an interface
// declares (a call through the interface references the interface's
// method, not this one) and the exported methods of the types dare.go
// names (the public API).
func testOnlyFuncs(files []goFile) []string {
	im := &treeImporter{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	for _, f := range files {
		if !f.isTest() {
			p := path.Join("dare", path.Dir(f.path))
			im.files[p] = append(im.files[p], f.ast)
		}
	}
	for p := range im.files {
		if _, err := im.Import(p); err != nil {
			return []string{"type-checking the tree: " + err.Error()}
		}
	}
	used, api := map[types.Object]bool{}, map[types.Object]bool{}
	for id, obj := range im.info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			used[obj.Origin()] = true
		case *types.TypeName:
			if hookGateFset.Position(id.Pos()).Filename == "dare.go" {
				api[obj] = true
			}
		}
	}
	// No package scope names error's Error, nor Unwrap, which errors.Is
	// and errors.As call through an unnamed interface.
	named := map[string]bool{"Error": true, "Unwrap": true}
	seen := map[*types.Package]bool{}
	var addNames func(pkg *types.Package)
	addNames = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					named[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addNames(imp)
		}
	}
	for _, pkg := range im.pkgs {
		addNames(pkg)
	}
	var out []string
	report := func(fn *types.Func) {
		pos := hookGateFset.Position(fn.Pos())
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(pos.Filename), pos.Line, strings.ReplaceAll(fn.FullName(), "dare/internal/", "")))
	}
	for p, pkg := range im.pkgs {
		if !strings.HasPrefix(p, "dare/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if !used[obj] {
					report(obj)
				}
			case *types.TypeName:
				t, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range t.NumMethods() {
					if m := t.Method(i); !used[m] && !named[m.Name()] && !(api[obj] && m.Exported()) {
						report(m)
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// lastName is the final name of x, an identifier or a selector: "NN" for
// t.c.NN, "hb" for hb.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

package dare_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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

// plant is a source that breaks a rule when it joins the tree at path.
type plant struct{ path, src string }

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
			{"internal/dfs/hook.go", "package dfs\n\ntype ReplicaListener interface{ OnReplica(b BlockID) }\n"},
			{"internal/mapreduce/hook_test.go", "package mapreduce\n\nvar _ = func(h myReplicationHook) {}\n"},
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
			{"internal/sim/fast.go", "package sim\n\nimport \"unsafe\"\n\nvar _ = unsafe.Sizeof(0)\n"},
			{"cmd/dare-sim/dump.go", "package main\n\nimport (\n\t\"fmt\"\n\tr \"reflect\"\n)\n\nvar _ = fmt.Sprint(r.TypeOf(0))\n"},
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
			{"internal/dfs/codec.go", "package dfs\n\nfunc (nn *NameNode) EncodeState() []byte { return nil }\n"},
			{"internal/policy/codec.go", "package policy\n\ntype stateful interface {\n\tDecodeRuleState(b []byte) error\n}\n"},
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
				case on == "NN" && slices.Contains([]string{"FailNode", "RecoverNode", "ReRegisterNode"}, sel.Sel.Name),
					on == "hb" && (sel.Sel.Name == "Stop" || sel.Sel.Name == "Resume"):
					return on + "." + sel.Sel.Name
				}
				return ""
			})
		},
		plants: []plant{
			{"internal/mapreduce/kill.go", "package mapreduce\n\nfunc (t *Tracker) kill(n *Node) { t.c.NN.FailNode(n.ID) }\n"},
			{"internal/mapreduce/pause.go", "package mapreduce\n\nfunc (t *Tracker) pause(n *Node) {\n\tt.hb.\n\t\tStop(n.ID)\n}\n"},
			{"internal/mapreduce/rejoin.go", "package mapreduce\n\nfunc (t *Tracker) rejoin(n *Node) { _, _ = t.c.NN.ReRegisterNode(n.ID, nil) }\n"},
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
			{"internal/mapreduce/later.go", "package mapreduce\n\nfunc (t *Tracker) later(d deferral) { t.c.Eng.DeferTag(1, d, t.bind(d)) }\n"},
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
			{"internal/core/capture.go", "package core\n\nfunc (m *Manager) capture(b dfs.BlockID) Decision { return Decision{} }\n"},
			{"internal/core/multiline.go", "package core\n\nfunc (m *Manager) capture(\n\tb dfs.BlockID,\n\tlocal bool,\n) Decision {\n\treturn Decision{}\n}\n"},
			{"internal/core/witherr.go", "package core\n\nfunc (m *Manager) capture(b dfs.BlockID) (Decision, error) { return Decision{}, nil }\n"},
			{"internal/core/named.go", "package core\n\nfunc (m *Manager) capture() (n int, d *Decision) { return 0, nil }\n"},
		},
	},
}

// TestHookGate checks the design rules on the syntax tree of every Go
// file of the repository (the perfbench module included; testdata and
// dot directories skipped, as the go tool skips them), then shows that
// each rule's planted sources break it.
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
				f, err := parser.ParseFile(hookGateFset, p.path, p.src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.check(append(slices.Clip(tree), goFile{path: p.path, ast: f})); len(got) == 0 {
					t.Errorf("planted %s keeps the rule:\n%s", p.path, p.src)
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

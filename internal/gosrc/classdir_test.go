package gosrc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/modules/cache"
	"repro/internal/modules/graph"
	"repro/internal/modules/plan"
)

// graphSrc uses //semlock:class to split the two multimaps into
// separate equivalence classes — the compiler-facing form of the Graph
// module's abstraction.
const graphSrc = `package g

import "repro/internal/semadt"

//semlock:atomic
//semlock:class succs MM$succs
//semlock:class preds MM$preds
func InsertEdge(succs *semadt.Multimap, preds *semadt.Multimap, s int, d int) {
	ok := succs.Put(s, d)
	if ok {
		preds.Put(d, s)
	}
}

//semlock:atomic
//semlock:class succs MM$succs
//semlock:class preds MM$preds
func FindSuccessors(succs *semadt.Multimap, preds *semadt.Multimap, n int) {
	out := succs.Get(n)
	_ = out
}
`

// TestClassDirective: the directive splits the classes, giving each
// multimap its own table and rank instead of one merged Multimap class.
func TestClassDirective(t *testing.T) {
	f, err := ParseFile("g.go", graphSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Functions[0].ClassKeys["succs"] != "MM$succs" {
		t.Fatalf("class keys = %v", f.Functions[0].ClassKeys)
	}
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables["MM$succs"] == nil || res.Tables["MM$preds"] == nil {
		t.Fatalf("tables for split classes missing: %v", keysOf(res.Tables))
	}
	if res.Rank("MM$succs") == res.Rank("MM$preds") {
		t.Error("split classes must have distinct ranks")
	}
	out := PlanText(res)
	if !strings.Contains(out, "succs.lock({put(d,s),put(s,d)})") &&
		!strings.Contains(out, "succs.lock({put(s,d)})") {
		t.Errorf("insert plan unexpected:\n%s", out)
	}
}

// TestClassDirectiveBad: malformed directives are rejected.
func TestClassDirectiveBad(t *testing.T) {
	src := `package g
//semlock:atomic
//semlock:class onlyname
func F(m *semadt.Map) {}`
	if _, err := ParseFile("g.go", src); err == nil {
		t.Error("malformed //semlock:class must fail")
	}
}

// TestWithoutClassDirectiveMerges: without directives the two multimaps
// share one class and the same-class pair needs LV2's dynamic ordering.
func TestWithoutClassDirectiveMerges(t *testing.T) {
	src := strings.ReplaceAll(graphSrc, "//semlock:class succs MM$succs\n", "")
	src = strings.ReplaceAll(src, "//semlock:class preds MM$preds\n", "")
	f, err := ParseFile("g.go", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tables["Multimap"] == nil {
		t.Fatalf("merged class table missing: %v", keysOf(res.Tables))
	}
	out := PlanText(res)
	if !strings.Contains(out, "lock2(preds,succs") {
		t.Errorf("same-class pair should use dynamically ordered locking:\n%s", out)
	}
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestGeneratedClassSplitRanks runs the compiled modules whose sections
// split a class: the plan each builds from its generated sections and
// class function (BuildPlan) has a table for every split class, and the
// rank every emitted lock statement carries is that plan's rank of the
// locked variable's class. Without the generated class function the
// plan merges the split classes while the lock statements keep the
// split ranks.
func TestGeneratedClassSplitRanks(t *testing.T) {
	for _, m := range []struct {
		dir   string
		build func(plan.Options) *plan.Plan
	}{
		{"graph", graph.BuildPlan},
		{"cache", cache.BuildPlan},
	} {
		t.Run(m.dir, func(t *testing.T) {
			dir := filepath.Join("../modules", m.dir)
			f, err := ParseFile(filepath.Join(dir, "section.go"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if f.ClassOf() == nil {
				t.Fatal("section.go splits no class")
			}
			p := m.build(plan.Options{})
			section := map[string]int{}
			for si, fn := range f.Functions {
				section[fn.Name] = si
				for v, key := range fn.ClassKeys {
					if p.Res.Tables[key] == nil {
						t.Errorf("%s: no table for the split class %q of %s", fn.Name, key, v)
					}
					if got, _ := p.Res.Classes.ClassOfVar(si, v); got != key {
						t.Errorf("%s: plan puts %s in class %q, directive says %q", fn.Name, v, got, key)
					}
				}
			}

			gen := filepath.Join(dir, m.dir+"_semlock.go")
			af, err := parser.ParseFile(token.NewFileSet(), gen, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			locks := 0
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				si, ok := section[fd.Name.Name]
				if !ok {
					t.Fatalf("%s: method %s compiles no section of section.go", gen, fd.Name.Name)
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || lint.ExprText(call.Fun) != "tx.Lock" {
						return true
					}
					locks++
					v := lint.ExprText(call.Args[0].(*ast.CallExpr).Args[0])
					rank, err := strconv.Atoi(call.Args[2].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					key, _ := p.Res.Classes.ClassOfVar(si, v)
					if want := p.Rank(key); rank != want {
						t.Errorf("%s: tx.Lock of %s carries rank %d, the plan ranks its class %q %d",
							fd.Name.Name, v, rank, key, want)
					}
					return true
				})
			}
			if locks == 0 {
				t.Errorf("%s holds no tx.Lock", gen)
			}
		})
	}
}

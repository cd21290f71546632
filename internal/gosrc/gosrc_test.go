package gosrc

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/ir"
)

// demoSrc is a Fig 1-shaped annotated input (the Intruder-inspired
// section) in the supported Go subset.
const demoSrc = `package demo

import "repro/internal/semadt"

//semlock:atomic
//semlock:var set Set
func Process(m *semadt.Map, q *semadt.Queue, id, x, y int, flag bool) {
	set := m.Get(id)
	if set == nil {
		set = semadt.NewSet(nil)
		m.Put(id, set)
	}
	set.(*semadt.Set).Add(x)
	set.(*semadt.Set).Add(y)
	if flag {
		q.Enqueue(set)
		m.Remove(id)
	}
}
`

func parseDemo(t *testing.T) *File {
	t.Helper()
	f, err := ParseFile("demo.go", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParseDemo: the frontend reconstructs the Fig 1 IR from Go source.
func TestParseDemo(t *testing.T) {
	f := parseDemo(t)
	if f.Package != "demo" || len(f.Functions) != 1 {
		t.Fatalf("parse: pkg=%s funcs=%d", f.Package, len(f.Functions))
	}
	fn := f.Functions[0]
	if fn.Name != "Process" {
		t.Fatalf("name = %s", fn.Name)
	}
	if fn.ADTParams["m"] != "Map" || fn.ADTParams["q"] != "Queue" {
		t.Errorf("ADT params = %v", fn.ADTParams)
	}
	if fn.LocalADTs["set"] != "Set" {
		t.Errorf("locals = %v", fn.LocalADTs)
	}
	got := ir.Print(fn.Section)
	want := `atomic Process {
  set=m.get(id);
  if(set==null) {
    set=new Set();
    m.put(id, set);
  }
  set.add(x);
  set.add(y);
  if(flag) {
    q.enqueue(set);
    m.remove(id);
  }
}
`
	if got != want {
		t.Errorf("parsed IR:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompileDemo: the synthesized plan matches the Fig 2 shape.
func TestCompileDemo(t *testing.T) {
	f := parseDemo(t)
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Sections[0])
	for _, want := range []string{
		"m.lock({get(id),put(id,*),remove(id)});",
		"set.lock({add(*)});",
		"q.lock({enqueue(set)});",
		"q.unlockAll();",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(PlanText(res), "Map: 64 modes") {
		t.Error("PlanText missing class summary")
	}
}

// TestGenerateDemo: the rewritten Go parses and contains the inserted
// locking statements. (examples/compiler/demo holds a committed, compiling
// copy of this output.)
func TestGenerateDemo(t *testing.T) {
	f := parseDemo(t)
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(f, res)
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, src)
	}
	fset := token.NewFileSet()
	if _, perr := parser.ParseFile(fset, "gen.go", src, 0); perr != nil {
		t.Fatalf("generated source does not parse: %v\n%s", perr, src)
	}
	for _, want := range []string{
		"func (_p *_semlockPlan) Process(m *semadt.Map, q *semadt.Queue, id, x, y int, flag bool) {",
		"core.Atomically(func(tx *core.Txn) {",
		"tx.Lock(semadt.SemOf(m), _p.site0.Mode1(semadt.ID(id)), 0)",
		"tx.Lock(semadt.SemOf(set), _p.site1.Mode(), 1)",
		"set = semadt.NewSet(_p.tblSet)",
		"set.(*semadt.Set).Add(x)",
		"tx.UnlockInstance(semadt.SemOf(q))",
		"m.Remove(id)",
		"site0:  p.Ref(0, \"m\"),",
		"tblSet: p.Table(\"Set\"),",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "_semlockMode") || strings.Contains(src, "plan.MustBuild") {
		t.Errorf("generated source selects through a variadic helper or builds its own plan:\n%s", src)
	}
	// The releases that end the section are core.Atomically's epilogue.
	if !strings.Contains(src, "\t\t\tm.Remove(id)\n\t\t}\n\t})\n") {
		t.Errorf("generated section does not end at its last operation:\n%s", src)
	}
}

// TestGenerateTypedLocals: a local declared var x T keeps its type in
// the output, so conditions and results that need it compile; other
// locals are core.Value.
func TestGenerateTypedLocals(t *testing.T) {
	src := `package p

import "repro/internal/semadt"

//semlock:atomic
func Count(m *semadt.Map, k, limit int) bool {
	var ok bool
	var n int
	n = m.Size()
	v := m.Get(k)
	ok = n < limit && v == nil
	if ok {
		m.Put(k, n)
	}
	return ok
}
`
	f, err := ParseFile("typed.go", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(f, res)
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, gen)
	}
	for _, want := range []string{"var n int\n", "var v core.Value\n", "var ok bool\n", "\t})\n\treturn ok\n}"} {
		if !strings.Contains(gen, want) {
			t.Errorf("generated source missing %q:\n%s", want, gen)
		}
	}
}

// TestGenerateResult: a function with one result returns it after the
// section, from the local the section assigned; the return statement is
// not part of the section's IR.
func TestGenerateResult(t *testing.T) {
	src := `package p

import "repro/internal/semadt"

//semlock:atomic
func Lookup(m *semadt.Map, k, j int) []byte {
	v := m.Get(k)
	if v == nil {
		v = make([]byte, j)
		m.Put(k, v)
	}
	return v.([]byte)
}
`
	f, err := ParseFile("result.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if out := ir.Print(f.Functions[0].Section); strings.Contains(out, "return") {
		t.Errorf("the return statement leaked into the section:\n%s", out)
	}
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(f, res)
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, gen)
	}
	for _, want := range []string{
		"func (_p *_semlockPlan) Lookup(m *semadt.Map, k, j int) []byte {",
		"\t})\n\treturn v.([]byte)\n}",
	} {
		if !strings.Contains(gen, want) {
			t.Errorf("generated source missing %q:\n%s", want, gen)
		}
	}
}

// TestParseErrors: unsupported constructs fail with diagnostics.
func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no annotation": `package p
func F() {}`,
		"return inside": `package p
//semlock:atomic
func F(m *semadt.Map) { if m != nil { return } }`,
		"bad directive": `package p
//semlock:atomic
//semlock:var set
func F(m *semadt.Map) {}`,
		"unknown class": `package p
//semlock:atomic
//semlock:var s Blob
func F(m *semadt.Map) {}`,
		"ctor without directive": `package p
//semlock:atomic
func F(m *semadt.Map) { s := semadt.NewSet(nil); m.Put(1, s) }`,
		"longer marker": `package p
//semlock:atomicity
func F(m *semadt.Map) {}`,
		"result not returned last": `package p
//semlock:atomic
func F(m *semadt.Map) int { m.Clear() }`,
		"two results": `package p
//semlock:atomic
func F(m *semadt.Map) (int, int) { return 1, 2 }`,
		"var with a value": `package p
//semlock:atomic
func F(m *semadt.Map) { var n int = 1; m.Put(1, n) }`,
	}
	for name, src := range cases {
		if _, err := ParseFile(name+".go", src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestParseLoops: for loops lower to While (+ hoisted init, appended post).
func TestParseLoops(t *testing.T) {
	src := `package p

//semlock:atomic
func Sum(m *semadt.Map, n int) {
	sum := 0
	for i := 0; i < n; i++ {
		v := m.Get(i)
		sum = sum + 1
		_ = v
	}
}
`
	f, err := ParseFile("loop.go", src)
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(f.Functions[0].Section)
	for _, want := range []string{"while(i < n)", "v=m.get(i);", "i++"} {
		if !strings.Contains(out, want) {
			t.Errorf("loop IR missing %q:\n%s", want, out)
		}
	}
	// The loop makes m self-reachable but m is never reassigned, so no
	// wrapping is needed and synthesis succeeds.
	if _, err := Compile(f); err != nil {
		t.Fatalf("Compile: %v", err)
	}
}

package gosrc

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// occSrc has a read-only function (Lookup: both calls declared
// observers) and a mutator (Store). Compiling at StageOptimistic must
// wrap exactly Lookup in the hybrid envelope.
const occSrc = `package demo

import "repro/internal/semadt"

//semlock:atomic
func Lookup(m *semadt.Map, s *semadt.Set, k, j int) {
	v := m.Get(k)
	_ = v
	has := s.Contains(j)
	_ = has
}

//semlock:atomic
func Store(m *semadt.Map, s *semadt.Set, k, j int) {
	m.Put(k, j)
	s.Add(j)
}
`

// compileOcc compiles occSrc at StageOptimistic.
func compileOcc(t *testing.T) (*File, *synth.Result) {
	t.Helper()
	f, err := ParseFile("occ.go", occSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileAt(f, synth.StageOptimistic)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestGenerateOptimistic: CompileAt(StageOptimistic) wraps the read-only
// function, and Generate emits it transaction-free — the body over a
// local core.Snapshot ahead of the core.Atomically guard, which now
// wraps only the unchanged pessimistic fallback — and the generated
// source parses.
func TestGenerateOptimistic(t *testing.T) {
	f, res := compileOcc(t)
	if out := ir.Print(res.Sections[0]); !strings.Contains(out, "optimistic {") {
		t.Fatalf("Lookup not rewritten:\n%s", out)
	}
	if out := ir.Print(res.Sections[1]); strings.Contains(out, "optimistic {") {
		t.Fatalf("Store must stay pessimistic:\n%s", out)
	}

	src, err := Generate(f, res)
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, src)
	}
	if _, perr := parser.ParseFile(token.NewFileSet(), "gen.go", src, 0); perr != nil {
		t.Fatalf("generated source does not parse: %v\n%s", perr, src)
	}
	for _, want := range []string{
		"var sn core.Snapshot",
		"if func() bool {",
		"if !sn.Observe(semadt.SemOf(m), ",
		"if !sn.Observe(semadt.SemOf(s), ",
		"return false",
		"}() && sn.Validate() {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
	// The fallback still locks, inside the guard and after the read: the
	// pessimistic acquisitions survive.
	validate := strings.Index(src, "sn.Validate()")
	guard := strings.Index(src, "core.Atomically(")
	lock := strings.Index(src, "tx.Lock")
	if !(validate < guard && guard < lock) {
		t.Errorf("want the optimistic read, then the guard, then the fallback's locks (offsets %d, %d, %d):\n%s",
			validate, guard, lock, src)
	}
	// Exactly one read in the file is optimistic — the mutator keeps
	// plain locking — and it opens no envelope on a transaction.
	if n := strings.Count(src, "core.Snapshot"); n != 1 {
		t.Errorf("expected exactly 1 core.Snapshot, found %d:\n%s", n, src)
	}
	for _, gone := range []string{"tx.TryOptimistic", "tx.Observe"} {
		if strings.Contains(src, gone) {
			t.Errorf("a section that is only an optimistic read still emits %s:\n%s", gone, src)
		}
	}
}

// TestGenerateOptimisticMustBeWholeSection: the generator has one
// shape for an optimistic read. An ir.Optimistic that is not its
// section's only statement (nothing in synth builds one) is refused, not
// emitted some other way.
func TestGenerateOptimisticMustBeWholeSection(t *testing.T) {
	f, res := compileOcc(t)
	sec := res.Sections[0]
	sec.Body = append(ir.Block{&ir.Assign{Lhs: "_", Rhs: ir.VarRef{Name: "k"}}}, sec.Body...)

	if src, err := Generate(f, res); err == nil || !strings.Contains(err.Error(), "only statement") {
		t.Fatalf("Generate = %v, want the placement refused:\n%s", err, src)
	}
}

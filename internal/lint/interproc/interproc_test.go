package interproc

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadFixture type-checks testdata files as one package, the same way
// internal/lint's own tests do: the source importer resolves the
// fixture's repro/... imports because testdata/ sits inside the module.
func loadFixture(t *testing.T, pkgPath string, filenames ...string) *lint.Package {
	t.Helper()
	fset := fixtureFset
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, filepath.Join("testdata", name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: fixtureImporter}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %v as %s: %v", filenames, pkgPath, err)
	}
	return &lint.Package{PkgPath: pkgPath, Dir: "testdata", Fset: fset, Files: files, Types: tpkg, Info: info}
}

// Every fixture load shares one FileSet and one source importer, so the
// repro packages the fixtures import are type-checked once per test
// binary, not once per load.
var (
	fixtureFset     = token.NewFileSet()
	fixtureImporter = importer.ForCompiler(fixtureFset, "source", nil)
)

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

func wantsOf(t *testing.T, filename string) map[int][]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", filename))
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]string)
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], m[1])
		}
	}
	return wants
}

func matchWants(t *testing.T, file string, diags []lint.Diagnostic) {
	t.Helper()
	wants := wantsOf(t, file)
	for _, d := range diags {
		line := d.Pos.Line
		matched := -1
		for i, w := range wants[line] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		wants[line] = append(wants[line][:matched], wants[line][matched+1:]...)
	}
	for line, rest := range wants {
		for _, w := range rest {
			t.Errorf("%s:%d: expected a finding containing %q, got none", file, line, w)
		}
	}
}

func findDiag(diags []lint.Diagnostic, substr string) *lint.Diagnostic {
	for i := range diags {
		if strings.Contains(diags[i].Message, substr) {
			return &diags[i]
		}
	}
	return nil
}

func witnessText(d *lint.Diagnostic) string { return strings.Join(d.Witness, "\n") }

// TestGuardedBy pins the fixture findings exactly and checks the
// interprocedural witness chains.
func TestGuardedBy(t *testing.T) {
	pkg := loadFixture(t, "repro/tdata", "guardedby.go")
	diags := lint.Run([]*lint.Package{pkg}, nil, []*lint.ProgramAnalyzer{GuardedBy})
	matchWants(t, "guardedby.go", diags)

	// The helper's finding must name the exposing caller chain.
	sweep := findDiag(diags, "s.q.Dequeue()")
	if sweep == nil {
		t.Fatalf("no finding for sweep's Dequeue; got %v", diags)
	}
	w := witnessText(sweep)
	if !strings.Contains(w, "Evict") || !strings.Contains(w, "sweep") {
		t.Errorf("sweep witness should trace Evict -> sweep, got:\n%s", w)
	}

	peek := findDiag(diags, "s.m.Get()")
	if peek == nil {
		t.Fatalf("no finding for Peek's Get; got %v", diags)
	}
	if !strings.Contains(witnessText(peek), "exported API") {
		t.Errorf("Peek witness should name the exported entry point, got:\n%s", witnessText(peek))
	}

	spawn := findDiag(diags, "q.Enqueue()")
	if spawn == nil {
		t.Fatalf("no finding for the spawned Enqueue; got %v", diags)
	}
	if !strings.Contains(witnessText(spawn), "goroutine") {
		t.Errorf("spawned-op witness should mention the goroutine escape, got:\n%s", witnessText(spawn))
	}
}

// TestRankOrder: two constant inversions (one through LockBatchWithin),
// the two seeded cycles (one of them interprocedural through the lockY
// splice), and nothing else.
func TestRankOrder(t *testing.T) {
	pkg := loadFixture(t, "repro/tdata", "rankorder.go")
	diags := lint.Run([]*lint.Package{pkg}, nil, []*lint.ProgramAnalyzer{RankOrder})

	inv := findDiag(diags, "rank 1 acquired after rank 2")
	if inv == nil {
		t.Fatalf("no constant-inversion finding; got %v", diags)
	}
	if len(inv.Witness) != 2 || !strings.Contains(witnessText(inv), "acquired first") {
		t.Errorf("inversion witness should show both sites, got:\n%s", witnessText(inv))
	}

	if findDiag(diags, "rank 3 acquired after rank 4") == nil {
		t.Errorf("no inversion finding for the LockBatchWithin site; got %v", diags)
	}

	var cycles []*lint.Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "lock-order cycle") {
			cycles = append(cycles, &diags[i])
		}
	}
	if len(cycles) != 2 {
		t.Fatalf("want 2 cycle findings (pair + grid), got %d: %v", len(cycles), diags)
	}
	var pairCyc, gridCyc *lint.Diagnostic
	for _, c := range cycles {
		switch {
		case strings.Contains(c.Message, "pair.rank"):
			pairCyc = c
		case strings.Contains(c.Message, "grid.rank"):
			gridCyc = c
		}
	}
	if pairCyc == nil || gridCyc == nil {
		t.Fatalf("cycles should name pair.rank* and grid.rank* symbols: %v", diags)
	}
	if !strings.Contains(witnessText(gridCyc), "lockY") {
		t.Errorf("grid cycle witness should cross the lockY splice, got:\n%s", witnessText(gridCyc))
	}

	if len(diags) != 4 {
		t.Errorf("want exactly 4 findings, got %d: %v", len(diags), diags)
	}

	// The branch arms of Pick/PickRev and the TwoPL baseline order must
	// contribute no findings — covered by the count above, but make the
	// intent explicit: no cycle may mention opt or bank symbols.
	for _, c := range cycles {
		if strings.Contains(c.Message, "opt.") || strings.Contains(c.Message, "bank.") {
			t.Errorf("false cycle through branch arms or TwoPL baseline: %s", c.Message)
		}
	}
}

package lint

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
)

// loadFixture type-checks one testdata file under a chosen package path
// (the path matters: txndiscipline, abortpath and retrypath exempt
// internal/core, and boxonce counts only callees declared under
// internal/). The source importer resolves
// the fixture's repro/... imports because testdata/ sits inside the
// module.
func loadFixture(t *testing.T, pkgPath string, filenames ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
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
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %v as %s: %v", filenames, pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Dir: "testdata", Fset: fset, Files: files, Types: tpkg, Info: info}
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantsOf scans a fixture for `// want "substring"` markers, keyed by
// 1-based line number.
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

// TestAnalyzers runs each analyzer over its fixture and requires the
// findings to match the fixture's want markers exactly — every finding
// has a marker on its line, every marker is hit.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		file     string
		pkgPath  string
		analyzer *Analyzer
	}{
		{"txndiscipline.go", "repro/tdata", TxnDiscipline},
		{"modemask.go", "repro/tdata", ModeMask},
		{"abortpath.go", "repro/tdata", AbortPath},
		{"batchable.go", "repro/tdata", Batchable},
		{"directives.go", "repro/tdata", TxnDiscipline},
		{"occpure.go", "repro/tdata", OccPure},
		{"retrypath.go", "repro/tdata", RetryPath},
		{"boxonce.go", "repro/internal/apps/tdata", BoxOnce},
		{"heldwalk.go", "repro/tdata", HeldWalk},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name+"/"+tc.file, func(t *testing.T) {
			pkg := loadFixture(t, tc.pkgPath, tc.file)
			diags := Run([]*Package{pkg}, []*Analyzer{tc.analyzer}, nil)
			wants := wantsOf(t, tc.file)
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
					t.Errorf("%s:%d: expected a finding containing %q, got none", tc.file, line, w)
				}
			}
		})
	}
}

// TestPathGates checks the package-path scoping: txndiscipline and
// abortpath are silent inside internal/core (where driving the raw
// mechanism is the job). retrypath is silent inside internal/core only:
// internal/resilience has no retry loop left to exempt.
func TestPathGates(t *testing.T) {
	inCore := loadFixture(t, "repro/internal/core", "txndiscipline.go")
	if diags := Run([]*Package{inCore}, []*Analyzer{TxnDiscipline}, nil); len(diags) != 0 {
		t.Errorf("txndiscipline fired inside internal/core: %v", diags)
	}
	abortInCore := loadFixture(t, "repro/internal/core", "abortpath.go")
	if diags := Run([]*Package{abortInCore}, []*Analyzer{AbortPath}, nil); len(diags) != 0 {
		t.Errorf("abortpath fired inside internal/core: %v", diags)
	}
	retryInCore := loadFixture(t, "repro/internal/core", "retrypath.go")
	if diags := Run([]*Package{retryInCore}, []*Analyzer{RetryPath}, nil); len(diags) != 0 {
		t.Errorf("retrypath fired inside internal/core: %v", diags)
	}
	retryInResilience := loadFixture(t, "repro/internal/resilience", "retrypath.go")
	if diags := Run([]*Package{retryInResilience}, []*Analyzer{RetryPath}, nil); len(diags) == 0 {
		t.Errorf("retrypath silent inside internal/resilience, which is no longer exempt")
	}
}

// TestLoadModulePackage exercises the go list loader on a real package
// of this module.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := Load(".", "./internal/padded")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].PkgPath, "internal/padded") {
		t.Fatalf("loaded %v, want exactly internal/padded", pkgs)
	}
	if diags := Run(pkgs, All(), nil); len(diags) != 0 {
		t.Errorf("internal/padded should be clean: %v", diags)
	}
}

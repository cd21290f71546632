package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc builds a Package with just enough state for directive
// parsing (no type-checking: suppressions are purely syntactic).
func parseSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{PkgPath: "repro/tdata", Fset: fset, Files: []*ast.File{f}}
}

// known holds every per-package analyzer's name, and "directive".
func known() map[string]bool {
	names := map[string]bool{directiveAnalyzer: true}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// TestDirectiveScoping pins the coverage rules: a line ignore covers
// its own line and the next, a file ignore covers its whole file (and
// only that file), and both are keyed by analyzer name.
func TestDirectiveScoping(t *testing.T) {
	src := `package tdata

//semlockvet:ignore occpure -- warm-up path runs before traffic
var a int

//semlockvet:file-ignore txndiscipline -- fixture: bench drives the raw mechanism
var b int
`
	pkg := parseSrc(t, src)
	var malformed []Diagnostic
	sup := parseSuppressions([]*Package{pkg}, known(), func(d Diagnostic) { malformed = append(malformed, d) })
	if len(malformed) != 0 {
		t.Fatalf("well-formed directives reported as malformed: %v", malformed)
	}

	cases := []struct {
		name     string
		analyzer string
		file     string
		line     int
		want     bool
	}{
		{"ignore covers its own line", "occpure", "fix.go", 3, true},
		{"ignore covers the next line", "occpure", "fix.go", 4, true},
		{"ignore stops two lines below", "occpure", "fix.go", 5, false},
		{"ignore does not reach back up", "occpure", "fix.go", 2, false},
		{"ignore is analyzer-keyed", "modemask", "fix.go", 3, false},
		{"file-ignore covers the top of the file", "txndiscipline", "fix.go", 1, true},
		{"file-ignore covers below the directive", "txndiscipline", "fix.go", 7, true},
		{"file-ignore is analyzer-keyed", "modemask", "fix.go", 7, false},
		{"ignore is file-keyed", "occpure", "other.go", 3, false},
		{"file-ignore is file-keyed", "txndiscipline", "other.go", 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Diagnostic{Pos: token.Position{Filename: tc.file, Line: tc.line}, Analyzer: tc.analyzer}
			if got := sup.covers(d); got != tc.want {
				t.Errorf("covers(%s at %s:%d) = %v, want %v", tc.analyzer, tc.file, tc.line, got, tc.want)
			}
		})
	}
}

// TestDirectiveMalformed pins the malformed shapes, a directive naming
// no analyzer among them: every one is reported as a "directive"
// finding and suppresses nothing.
func TestDirectiveMalformed(t *testing.T) {
	cases := []struct {
		name      string
		directive string
		wantMsg   string
	}{
		{"missing reason", "//semlockvet:ignore occpure", "want //semlockvet:ignore <analyzer> -- <reason>"},
		{"empty reason after separator", "//semlockvet:ignore occpure -- ", "want //semlockvet:ignore"},
		{"missing analyzer", "//semlockvet:ignore -- some reason", "want //semlockvet:ignore"},
		{"unknown verb", "//semlockvet:suppress occpure -- some reason", "unknown verb"},
		{"file-ignore missing analyzer", "//semlockvet:file-ignore -- some reason", "want //semlockvet:file-ignore"},
		{"file-ignore missing reason", "//semlockvet:file-ignore occpure", "want //semlockvet:file-ignore"},
		{"misspelled analyzer", "//semlockvet:ignore occpur -- some reason", "names no analyzer of this run (occpur)"},
		{"file-ignore of a deleted analyzer", "//semlockvet:file-ignore paddedcopy -- some reason", "names no analyzer of this run (paddedcopy)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package tdata\n\n" + tc.directive + "\nvar a int\n"
			pkg := parseSrc(t, src)
			var malformed []Diagnostic
			sup := parseSuppressions([]*Package{pkg}, known(), func(d Diagnostic) { malformed = append(malformed, d) })
			if len(malformed) != 1 {
				t.Fatalf("want exactly 1 malformed report, got %v", malformed)
			}
			if malformed[0].Analyzer != "directive" {
				t.Errorf("malformed report analyzer = %q, want \"directive\"", malformed[0].Analyzer)
			}
			if !strings.Contains(malformed[0].Message, tc.wantMsg) {
				t.Errorf("message %q does not contain %q", malformed[0].Message, tc.wantMsg)
			}
			// A malformed directive must not suppress anything — on its
			// line, the next, or file-wide.
			for _, line := range []int{3, 4} {
				d := Diagnostic{Pos: token.Position{Filename: "fix.go", Line: line}, Analyzer: "occpure"}
				if sup.covers(d) {
					t.Errorf("malformed directive suppressed a finding at line %d", line)
				}
			}
		})
	}
}

// TestDirectiveOnWrongNode: a trailing directive on a line suppresses
// that line's findings even though the comment is attached to a
// different AST node than the offending expression, and a doc-comment
// directive does NOT blanket the whole declaration below it — only the
// directive's own line and the next.
func TestDirectiveOnWrongNode(t *testing.T) {
	src := `package tdata

// f's doc comment carries the directive three lines above the body.
//semlockvet:ignore occpure -- pinned: doc position, not body position
func f() {
	_ = 1
	_ = 2
}
`
	pkg := parseSrc(t, src)
	sup := parseSuppressions([]*Package{pkg}, known(), func(Diagnostic) {})
	if !sup.covers(Diagnostic{Pos: token.Position{Filename: "fix.go", Line: 5}, Analyzer: "occpure"}) {
		t.Errorf("directive should cover the line directly below it (the func line)")
	}
	for _, line := range []int{6, 7} {
		if sup.covers(Diagnostic{Pos: token.Position{Filename: "fix.go", Line: line}, Analyzer: "occpure"}) {
			t.Errorf("doc-comment directive must not blanket the body (line %d)", line)
		}
	}
}

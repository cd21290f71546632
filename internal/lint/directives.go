package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// HasDirective reports whether doc carries the compiler directive d (a
// //semlock: marker). A directive line is the directive alone, or the
// directive followed by whitespace and anything else — a reason, a
// note — so "//semlock:readonly -- reason" is the readonly marker and
// "//semlock:atomicity" is not the atomic one. The compiler (gosrc) and
// every analyzer read markers through this one rule.
func HasDirective(doc *ast.CommentGroup, d string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, d)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// Suppression directives. Some code drives the raw lock mechanism on
// purpose — the internal/modules and internal/apps "ours" types are
// hand transcriptions of synthesized plans, and internal/bench measures
// the bare mechanism. Those files opt out per analyzer with
//
//	//semlockvet:file-ignore <analyzer> -- <reason>
//
// anywhere in the file, or a single finding is silenced with
//
//	//semlockvet:ignore <analyzer> -- <reason>
//
// trailing the offending line or on the line directly above it. The
// reason is mandatory, and the analyzer must be one the run knows (or
// "directive", the name malformed directives are reported under): a
// directive without a reason, or naming no analyzer — misspelled, or
// left behind by a deleted one — suppresses nothing and is itself
// reported, so suppressions stay auditable.

const directivePrefix = "semlockvet:"

// directiveAnalyzer is the analyzer name of directive findings.
const directiveAnalyzer = "directive"

// suppressions holds the parsed directives of one package.
type suppressions struct {
	// file maps filename -> analyzer names ignored for the whole file.
	file map[string]map[string]bool
	// line maps filename -> directive line -> analyzer names; a
	// directive suppresses findings on its own line and the next.
	line map[string]map[int]map[string]bool
}

func (s *suppressions) covers(d Diagnostic) bool {
	if s.file[d.Pos.Filename][d.Analyzer] {
		return true
	}
	lines := s.line[d.Pos.Filename]
	return lines[d.Pos.Line][d.Analyzer] || lines[d.Pos.Line-1][d.Analyzer]
}

// parseSuppressions scans the packages' comments for directives. A
// malformed one, or one whose analyzer is not in known, is reported
// through report and suppresses nothing.
func parseSuppressions(pkgs []*Package, known map[string]bool, report func(d Diagnostic)) *suppressions {
	s := &suppressions{
		file: make(map[string]map[string]bool),
		line: make(map[string]map[int]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					s.parse(pkg.Fset.Position(c.Pos()), c.Text, known, report)
				}
			}
		}
	}
	return s
}

// parse records one comment's directive, if it is one.
func (s *suppressions) parse(pos token.Position, comment string, known map[string]bool, report func(d Diagnostic)) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, directivePrefix) {
		return
	}
	verb, rest, _ := strings.Cut(strings.TrimPrefix(text, directivePrefix), " ")
	spec, reason, hasReason := strings.Cut(rest, "--")
	name := strings.TrimSpace(spec)
	malformed := func(why string) {
		report(Diagnostic{Pos: pos, Analyzer: directiveAnalyzer,
			Message: "malformed " + directivePrefix + verb + " directive: " + why})
	}
	switch {
	case verb != "ignore" && verb != "file-ignore":
		malformed("unknown verb (want ignore or file-ignore)")
	case name == "" || !hasReason || strings.TrimSpace(reason) == "":
		malformed("want //" + directivePrefix + verb + " <analyzer> -- <reason>")
	case !known[name]:
		malformed("names no analyzer of this run (" + name + "), so it suppresses nothing")
	case verb == "file-ignore":
		if s.file[pos.Filename] == nil {
			s.file[pos.Filename] = make(map[string]bool)
		}
		s.file[pos.Filename][name] = true
	default:
		byLine := s.line[pos.Filename]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			s.line[pos.Filename] = byLine
		}
		if byLine[pos.Line] == nil {
			byLine[pos.Line] = make(map[string]bool)
		}
		byLine[pos.Line][name] = true
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Suppressions are audited escape hatches: a comment of the form
//
//	//lint:allow(rule) reason for the exception
//
// silences every diagnostic of that rule on the same line, on the line
// directly below, or — when the comment is part of a declaration's doc
// comment — anywhere inside that top-level declaration. The reason string is
// mandatory: an allow without one is itself reported, as is an allow that
// suppresses nothing (so stale annotations cannot accumulate).

var allowRe = regexp.MustCompile(`^//lint:allow\(([a-zA-Z0-9_,-]+)\)\s*(.*)$`)

// parseAllow parses one comment's text as an allow directive. ok is false
// when the text is not an allow at all (wrong verb, spaced-out directive,
// missing parens, or no valid rule name inside them); empty rule segments
// (`//lint:allow(a,,b)`) are dropped. FuzzSuppress holds this parser to its
// grammar.
func parseAllow(text string) (rules []string, reason string, ok bool) {
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return nil, "", false
	}
	for _, r := range strings.Split(m[1], ",") {
		if r != "" {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil, "", false
	}
	return rules, strings.TrimSpace(m[2]), true
}

// allow is one parsed //lint:allow comment.
type allow struct {
	file   string
	line   int
	rules  []string
	reason string
	// declStart/declEnd bound the top-level declaration this allow is a doc
	// comment of; both zero for line-level allows.
	declStart, declEnd int
	used               bool
}

func (a *allow) covers(rule string, line int) bool {
	for _, r := range a.rules {
		if r != rule {
			continue
		}
		if line == a.line || line == a.line+1 {
			return true
		}
		if a.declStart != 0 && line >= a.declStart && line <= a.declEnd {
			return true
		}
	}
	return false
}

// suppressions indexes every allow comment of a set of packages.
type suppressions struct {
	byFile map[string][]*allow
}

func newSuppressions() *suppressions {
	return &suppressions{byFile: map[string][]*allow{}}
}

// addPackage parses all allow comments in pkg, binding doc-comment allows to
// their declaration's line range.
func (s *suppressions) addPackage(fset *token.FileSet, pkg *Package) {
	for _, f := range pkg.Files {
		// Map each comment to the declaration it documents, if any.
		docOf := map[*ast.Comment]ast.Decl{}
		for _, d := range f.Decls {
			var doc *ast.CommentGroup
			switch d := d.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				for _, c := range doc.List {
					docOf[c] = d
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				a := &allow{
					file:   pos.Filename,
					line:   pos.Line,
					rules:  rules,
					reason: reason,
				}
				if d, ok := docOf[c]; ok {
					a.declStart = fset.Position(d.Pos()).Line
					a.declEnd = fset.Position(d.End()).Line
				}
				s.byFile[pos.Filename] = append(s.byFile[pos.Filename], a)
			}
		}
	}
}

// suppressed reports whether a diagnostic of rule at file:line is covered by
// an allow, marking the allow used.
func (s *suppressions) suppressed(rule, file string, line int) bool {
	hit := false
	for _, a := range s.byFile[file] {
		if a.covers(rule, line) {
			a.used = true
			hit = true
		}
	}
	return hit
}

// audit returns diagnostics for malformed or stale allows: missing reasons
// always, unused allows only when ranByName covers every rule the allow
// names (an allow cannot be proved stale by a partial run).
func (s *suppressions) audit(ranByName map[string]bool, full bool) []Diagnostic {
	var out []Diagnostic
	for _, as := range s.byFile {
		for _, a := range as {
			if a.reason == "" {
				out = append(out, Diagnostic{
					Rule: "allow", File: a.file, Line: a.line,
					Message: "suppression without a reason: //lint:allow(rule) must explain the exception",
				})
				continue
			}
			if !full || a.used {
				continue
			}
			ran := true
			for _, r := range a.rules {
				if !ranByName[r] {
					ran = false
					break
				}
			}
			if ran {
				out = append(out, Diagnostic{
					Rule: "allow", File: a.file, Line: a.line,
					Message: "stale suppression: //lint:allow(" + strings.Join(a.rules, ",") + ") matches no diagnostic",
				})
			}
		}
	}
	return out
}

package nifdy_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists holds the instructions people and CI follow to
// the tree: every `make <target>` (in backticks, or a workflow's run: line)
// must be on the Makefile's .PHONY line, every shell script named must be a
// file — under scripts/ when named bare — and every internal/, cmd/ or
// examples/ path named must exist, less any .Symbol suffix
// (internal/check.Options names internal/check). Deleting a gate or a package
// without its mentions fails here, not in somebody's terminal.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(mk)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := map[string]bool{}
	for _, name := range strings.Fields(string(phony[1])) {
		targets[name] = true
	}

	makeRE := regexp.MustCompile("(?:`|run: )make ([a-z][a-z0-9-]*)")
	scriptRE := regexp.MustCompile(`[A-Za-z0-9_./-]*\.sh\b`)
	pathRE := regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeRE.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s: `make %s` is not a Makefile target", doc, m[1])
			}
		}
		for _, m := range scriptRE.FindAll(text, -1) {
			path := string(m)
			if !strings.Contains(path, "/") {
				path = filepath.Join("scripts", path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: names %s, which does not exist", doc, m)
			}
		}
		for _, m := range pathRE.FindAll(text, -1) {
			path := string(m)
			if _, err := os.Stat(path); err == nil {
				continue
			}
			if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
				if _, err := os.Stat(path[:i]); err == nil {
					continue
				}
			}
			t.Errorf("%s: names %s, which does not exist", doc, m)
		}
	}
}

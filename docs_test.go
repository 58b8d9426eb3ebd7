package nifdy_test

import (
	"os"
	"os/exec"
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
// (internal/check.Options names internal/check). Every -flag in a
// nifdy-bench or nifdy-sim command must be one the built binary's -h lists,
// and so must a backticked `-flag …` in a paragraph that names exactly one of
// the two. Deleting a gate, a package or a flag without its mentions fails
// here, not in somebody's terminal.
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

	flags := map[string]map[string]bool{} // binary -> its flag names
	for _, bin := range []string{"nifdy-bench", "nifdy-sim"} {
		exe := filepath.Join(t.TempDir(), bin)
		if out, err := exec.Command("go", "build", "-o", exe, "./cmd/"+bin).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", bin, err, out)
		}
		usage, _ := exec.Command(exe, "-h").CombinedOutput() // the usage text, exit 0
		names := regexp.MustCompile(`(?m)^  -([A-Za-z0-9_-]+)`).FindAllSubmatch(usage, -1)
		if len(names) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", bin, usage)
		}
		flags[bin] = map[string]bool{"h": true, "help": true}
		for _, m := range names {
			flags[bin][string(m[1])] = true
		}
	}
	// A command is the binary's name and the words after it, up to a
	// backtick, a # comment or the end of the line.
	cmdRE := regexp.MustCompile(`\b(nifdy-(?:bench|sim))\b((?:[ \t]+[^\s#` + "`" + `]+)*)`)
	binRE := regexp.MustCompile(`\bnifdy-(?:bench|sim)\b`)
	flagRE := regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)`)
	spanRE := regexp.MustCompile("`(-[A-Za-z][A-Za-z0-9_-]*)[^`]*`")
	checkFlags := func(doc, bin string, words []string) {
		for _, w := range words {
			if m := flagRE.FindStringSubmatch(w); m != nil && !flags[bin][m[1]] {
				t.Errorf("%s: names %s -%s, which %s does not define", doc, bin, m[1], bin)
			}
		}
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
		for _, para := range regexp.MustCompile(`\n[ \t]*\n`).Split(string(text), -1) {
			for _, m := range cmdRE.FindAllStringSubmatch(para, -1) {
				checkFlags(doc, m[1], strings.Fields(m[2]))
			}
			bins := binRE.FindAllString(para, -1)
			one := len(bins) > 0
			for _, b := range bins {
				one = one && b == bins[0]
			}
			if one {
				for _, m := range spanRE.FindAllStringSubmatch(para, -1) {
					checkFlags(doc, bins[0], m[1:])
				}
			}
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

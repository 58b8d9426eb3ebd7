package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The mutation tests are the negative image of the golden tests: each one
// copies a clean exemplar into a scratch directory with exactly one
// load-bearing line deleted, re-runs the rule, and demands the diagnostic
// name what disappeared. The golden fixtures prove the rules fire where
// expected; these prove they would fire on the drift they exist to catch —
// a rule whose clean exemplar stays clean after losing a case clause or an
// allow line is not guarding anything.

// mutateGolden copies ruleName's golden fixture into a temp package,
// deleting every line matching pattern (which must match exactly one line
// across the whole package — single-mutation discipline), then loads the
// result under a linttest import path and returns ruleName's diagnostics.
func mutateGolden(t *testing.T, ruleName, pattern string) []Diagnostic {
	t.Helper()
	srcDir := filepath.Join(moduleRoot(t), "internal", "lint", "testdata", "src", ruleName)
	re := regexp.MustCompile(pattern)
	dstDir := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, n))
		if err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(string(data), "\n") {
			if re.MatchString(line) {
				deleted++
				continue
			}
			kept = append(kept, line)
		}
		if err := os.WriteFile(filepath.Join(dstDir, n), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if deleted != 1 {
		t.Fatalf("pattern %q deleted %d lines in %s, want exactly 1", pattern, deleted, srcDir)
	}
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dstDir, "nifdy/internal/linttest/mutated")
	if err != nil {
		t.Fatal(err)
	}
	r := RuleByName(ruleName)
	if r == nil {
		t.Fatalf("rule %q not registered", ruleName)
	}
	return Run(l, []*Package{pkg}, []*Rule{r}, false)
}

func assertDiag(t *testing.T, diags []Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule != "allow" && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Fatalf("no diagnostic contains %q; got:\n%s", substr, diagDump(diags))
}

// Deleting one case clause from the exhaustive switch must name the
// missing member. (The dangling return folds into the previous case: the
// mutated file still compiles, the switch just stops covering grant.)
func TestMutationKindswitch(t *testing.T) {
	diags := mutateGolden(t, "kindswitch", `^\tcase grant:$`)
	assertDiag(t, diags, "switch over kind is not exhaustive: missing grant")
}

// Deleting the reasoned allow over heal's SetFault must surface the
// boundary-call diagnostic it was suppressing.
func TestMutationShardsafe(t *testing.T) {
	diags := mutateGolden(t, "shardsafe", `lint:allow\(shardsafe\)`)
	assertDiag(t, diags, "boundary-only method SetFault called in (*nifdy/internal/linttest/mutated.node).heal")
}

package lint

import (
	"bytes"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// --- golden testdata harness -----------------------------------------------

// wantRe matches the expectation comments in testdata:  // want `regex`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantSpec struct {
	re      *regexp.Regexp
	matched bool
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// loadGolden type-checks testdata/src/<name> under a synthetic tick-path
// import path and collects its want expectations keyed by line number.
func loadGolden(t *testing.T, l *Loader, name string) (*Package, map[int]*wantSpec) {
	t.Helper()
	dir := filepath.Join(l.Root, "internal", "lint", "testdata", "src", name)
	pkg, err := l.LoadDir(dir, "nifdy/internal/linttest/"+name)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]*wantSpec{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[i+1] = &wantSpec{re: regexp.MustCompile(m[1])}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want expectations in %s", dir)
	}
	return pkg, wants
}

// runGolden checks a rule against its fixture: every diagnostic must match a
// want on its line, and every want must be hit.
func runGolden(t *testing.T, ruleName string) {
	r := RuleByName(ruleName)
	if r == nil {
		t.Fatalf("rule %q not registered", ruleName)
	}
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, wants := loadGolden(t, l, ruleName)
	diags := Run(l, []*Package{pkg}, []*Rule{r}, false)
	for _, d := range diags {
		if d.Rule == "allow" {
			t.Errorf("unexpected allow diagnostic: %s", d)
			continue
		}
		w := wants[d.Line]
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("line %d: diagnostic %q does not match want %q", d.Line, d.Message, w.re)
			continue
		}
		w.matched = true
	}
	var missed []int
	for line, w := range wants {
		if !w.matched {
			missed = append(missed, line)
		}
	}
	sort.Ints(missed)
	for _, line := range missed {
		t.Errorf("line %d: want %q matched no diagnostic", line, wants[line].re)
	}
}

func TestGoldenMapiter(t *testing.T)    { runGolden(t, "mapiter") }
func TestGoldenWallclock(t *testing.T)  { runGolden(t, "wallclock") }
func TestGoldenHotalloc(t *testing.T)   { runGolden(t, "hotalloc") }
func TestGoldenLatchphase(t *testing.T) { runGolden(t, "latchphase") }
func TestGoldenPoolsafe(t *testing.T)   { runGolden(t, "poolsafe") }

func TestGoldenCodecsync(t *testing.T)  { runGolden(t, "codecsync") }
func TestGoldenKindswitch(t *testing.T) { runGolden(t, "kindswitch") }
func TestGoldenShardsafe(t *testing.T)  { runGolden(t, "shardsafe") }

// TestShardsafeRouterComponents pins that the real fabric types are
// components to shardsafe — through their Tick methods, the only marker
// isComponent knows — so deleting Iface.Tick or Router.Tick cannot silently
// drop the cross-component-write check on their fields.
func TestShardsafeRouterComponents(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("nifdy/internal/router")
	if err != nil {
		t.Fatal(err)
	}
	// Channel does not tick: plain data, not a component.
	for name, want := range map[string]bool{"Router": true, "Iface": true, "Channel": false} {
		tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			t.Fatalf("router.%s is not a declared type", name)
		}
		if got := isComponent(namedOf(tn.Type())); got != want {
			t.Errorf("isComponent(router.%s) = %v, want %v: only Tick(sim.Cycle) marks a component, and a component's fields carry shardsafe's cross-component-write check", name, got, want)
		}
	}
}

// --- suppression audit ------------------------------------------------------

func TestSuppressAudit(t *testing.T) {
	l, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(l.Root, "internal", "lint", "testdata", "src", "suppress")
	pkg, err := l.LoadDir(dir, "nifdy/internal/linttest/suppress")
	if err != nil {
		t.Fatal(err)
	}

	// Full run, full rule set: the reasonless allow and the stale allow are
	// the only findings (the map ranges themselves are suppressed).
	diags := Run(l, []*Package{pkg}, Rules(), true)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(diags), diagDump(diags))
	}
	if diags[0].Rule != "allow" || !strings.Contains(diags[0].Message, "suppression without a reason") {
		t.Errorf("diag 0 = %s, want missing-reason allow", diags[0])
	}
	if diags[1].Rule != "allow" || !strings.Contains(diags[1].Message, "stale suppression: //lint:allow(wallclock)") {
		t.Errorf("diag 1 = %s, want stale wallclock allow", diags[1])
	}

	// Partial run: stale allows cannot be proved stale, so only the
	// missing-reason diagnostic survives.
	partial := Run(l, []*Package{pkg}, []*Rule{RuleByName("mapiter")}, false)
	if len(partial) != 1 || !strings.Contains(partial[0].Message, "suppression without a reason") {
		t.Errorf("partial run: got %d diagnostics, want just the missing-reason allow:\n%s",
			len(partial), diagDump(partial))
	}
}

func diagDump(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// --- allow parsing ----------------------------------------------------------

func TestAllowParsing(t *testing.T) {
	m := allowRe.FindStringSubmatch("//lint:allow(mapiter) commutative sum")
	if m == nil || m[1] != "mapiter" || m[2] != "commutative sum" {
		t.Errorf("single-rule allow parsed as %v", m)
	}
	m = allowRe.FindStringSubmatch("//lint:allow(mapiter,hotalloc)")
	if m == nil || m[1] != "mapiter,hotalloc" || m[2] != "" {
		t.Errorf("multi-rule reasonless allow parsed as %v", m)
	}
	for _, not := range []string{
		"// lint:allow(mapiter) spaced out", // directives have no space
		"//lint:allow mapiter missing parens",
		"//lint:ignore(mapiter) wrong verb",
	} {
		if allowRe.MatchString(not) {
			t.Errorf("%q should not parse as an allow", not)
		}
	}
}

func TestAllowCovers(t *testing.T) {
	a := &allow{line: 10, rules: []string{"mapiter", "hotalloc"}}
	cases := []struct {
		rule string
		line int
		want bool
	}{
		{"mapiter", 10, true},  // same line
		{"mapiter", 11, true},  // line below
		{"hotalloc", 11, true}, // either named rule
		{"mapiter", 12, false}, // two below: out of range
		{"mapiter", 9, false},  // above
		{"wallclock", 10, false},
	}
	for _, c := range cases {
		if got := a.covers(c.rule, c.line); got != c.want {
			t.Errorf("line-allow covers(%s, %d) = %v, want %v", c.rule, c.line, got, c.want)
		}
	}

	d := &allow{line: 5, rules: []string{"hotalloc"}, declStart: 5, declEnd: 40}
	if !d.covers("hotalloc", 33) {
		t.Error("doc-comment allow should cover the whole declaration")
	}
	if d.covers("hotalloc", 41) {
		t.Error("doc-comment allow should stop at the declaration's end")
	}
	if d.covers("mapiter", 33) {
		t.Error("doc-comment allow should only cover its named rules")
	}
}

// --- registry ---------------------------------------------------------------

func TestRegistry(t *testing.T) {
	rs := Rules()
	want := []string{
		"codecsync", "hotalloc", "kindswitch", "latchphase", "mapiter",
		"poolsafe", "shardsafe", "wallclock",
	}
	if len(rs) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.Name != want[i] {
			t.Errorf("rule %d = %s, want %s (sorted)", i, r.Name, want[i])
		}
	}
	if RuleByName("mapiter") == nil {
		t.Error("RuleByName(mapiter) = nil")
	}
	if RuleByName("nope") != nil {
		t.Error("RuleByName(nope) != nil")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(&Rule{Name: "mapiter", Run: func(*Pass) {}})
}

func TestRegisterEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(&Rule{Name: "", Run: func(*Pass) {}})
}

// --- tick-path matching -----------------------------------------------------

func TestTickPathPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"nifdy/internal/core", true},
		{"nifdy/internal/sim", true},
		{"nifdy/internal/flow", true},             // the flow engine's solve path is swept too
		{"nifdy/internal/linttest/mapiter", true}, // golden fixtures are swept
		{"nifdy/internal/lint", false},            // the analyzer itself is not
		{"nifdy/internal/lint/sub", false},
		{"nifdy/cmd/nifdy-lint", false},
		{"nifdy", false},
		{"fmt", false},
	}
	for _, c := range cases {
		if got := tickPathPackage(c.path); got != c.want {
			t.Errorf("tickPathPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// --- CLI exit codes ---------------------------------------------------------

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tempModule builds a scratch module named nifdy with one dirty and one
// clean package, so CLI tests exercise real loads without touching the repo.
func tempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module nifdy\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "bad", "bad.go"), `package bad

func Sum(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`)
	writeFile(t, filepath.Join(dir, "internal", "good", "good.go"), `package good

func Add(a, b int) int { return a + b }
`)
	return dir
}

func TestCLIExitCodes(t *testing.T) {
	dir := tempModule(t)
	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := CLI(args, &out, &errb)
		return code, out.String(), errb.String()
	}

	code, out, _ := run("-C", dir, "-rules", "mapiter", "nifdy/internal/bad")
	if code != ExitFindings {
		t.Errorf("dirty package: exit %d, want %d", code, ExitFindings)
	}
	if !strings.Contains(out, "[mapiter]") {
		t.Errorf("dirty package output missing diagnostic:\n%s", out)
	}

	if code, _, _ := run("-C", dir, "-rules", "mapiter", "nifdy/internal/good"); code != ExitClean {
		t.Errorf("clean package: exit %d, want %d", code, ExitClean)
	}

	// Whole-module run with all rules finds the seeded map range.
	if code, _, _ := run("-C", dir); code != ExitFindings {
		t.Errorf("whole dirty module: exit %d, want %d", code, ExitFindings)
	}

	if code, _, errOut := run("-C", dir, "-rules", "bogus"); code != ExitError || !strings.Contains(errOut, "unknown rule") {
		t.Errorf("unknown rule: exit %d (stderr %q), want %d", code, errOut, ExitError)
	}

	if code, _, _ := run("-C", dir, "nifdy/internal/missing"); code != ExitError {
		t.Errorf("missing package: exit %d, want %d", code, ExitError)
	}

	if code, _, _ := run("-C", filepath.Join(os.TempDir(), "definitely-not-a-module")); code != ExitError {
		t.Errorf("no module root: exit %d, want %d", code, ExitError)
	}

	code, out, _ = run("-list")
	if code != ExitClean || !strings.Contains(out, "mapiter") || !strings.Contains(out, "hotalloc") {
		t.Errorf("-list: exit %d output %q", code, out)
	}
}

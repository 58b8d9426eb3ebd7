package lint

import (
	"regexp"
	"strings"
	"testing"
)

// ruleNameRe is the shape of one rule name inside //lint:allow(...): the
// grammar FuzzSuppress holds parseAllow to.
var ruleNameRe = regexp.MustCompile(`^[a-zA-Z0-9_-]+$`)

// FuzzSuppress fuzzes the allow-directive parser over arbitrary comment
// text. A successful parse must start with the literal directive prefix,
// yield only well-formed rule names, trim the reason, and round-trip
// through its canonical rendering; a failed parse must yield zero values.
// Seed corpus: testdata/fuzz/FuzzSuppress.
func FuzzSuppress(f *testing.F) {
	for _, seed := range []string{
		"//lint:allow(mapiter) commutative sum",
		"//lint:allow(mapiter,hotalloc) shared reason",
		"//lint:allow(hotalloc)",
		"//lint:allow(shardsafe) drain runs only at the window boundary",
		"//lint:allow(a-b_c9)   padded reason\t",
		"//lint:allow(kindswitch) reason with (parens), commas, and `ticks`",
		"//lint:allow(,)",
		"//lint:allow() empty rules",
		"// lint:allow(mapiter) spaced out",
		"//lint:allow mapiter missing parens",
		"//lint:ignore(mapiter) wrong verb",
		"//lint:allow(mapiter",
		"not a comment at all",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rules, reason, ok := parseAllow(text)
		if !ok {
			if rules != nil || reason != "" {
				t.Fatalf("parseAllow(%q): not ok but returned (%v, %q)", text, rules, reason)
			}
			return
		}
		if !strings.HasPrefix(text, "//lint:allow(") {
			t.Fatalf("parseAllow(%q) ok, but the text lacks the directive prefix", text)
		}
		if len(rules) == 0 {
			t.Fatalf("parseAllow(%q) ok with zero rules", text)
		}
		for _, r := range rules {
			if !ruleNameRe.MatchString(r) {
				t.Fatalf("parseAllow(%q): malformed rule name %q", text, r)
			}
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("parseAllow(%q): reason %q is not trimmed", text, reason)
		}
		canon := "//lint:allow(" + strings.Join(rules, ",") + ")"
		if reason != "" {
			canon += " " + reason
		}
		r2, rs2, ok2 := parseAllow(canon)
		if !ok2 || strings.Join(r2, ",") != strings.Join(rules, ",") || rs2 != reason {
			t.Fatalf("parseAllow(%q) = (%v, %q) but its canonical form %q re-parsed as (%v, %q, ok=%v)",
				text, rules, reason, canon, r2, rs2, ok2)
		}
	})
}

// TestParseAllowEmptySegments pins the empty-segment policy: blank entries
// inside the parens are dropped, and an allow naming nothing at all is not
// an allow (it suppresses nothing rather than suppressing by accident).
func TestParseAllowEmptySegments(t *testing.T) {
	rules, reason, ok := parseAllow("//lint:allow(mapiter,,hotalloc) shared")
	if !ok || strings.Join(rules, ",") != "mapiter,hotalloc" || reason != "shared" {
		t.Errorf("a,,b form parsed as (%v, %q, %v)", rules, reason, ok)
	}
	if _, _, ok := parseAllow("//lint:allow(,) nothing named"); ok {
		t.Error("all-empty rule list should not parse as an allow")
	}
}

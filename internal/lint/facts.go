package lint

// The phase-2 rules (codecsync, kindswitch, shardsafe) reason about
// relationships between packages: a codec in internal/dist must mirror a
// struct in internal/packet, a switch in internal/harness must cover an enum
// from internal/router. Re-deriving those summaries in every rule, for every
// analyzed package, would make a whole-module run quadratic in practice —
// the loader already memoizes type-checking per package, so the analyses
// memoize their derived summaries the same way.
//
// A fact is a per-package summary computed once per (family, package) and
// shared by every rule and every Pass of a run. Facts are plain values
// produced by a pure function of the loaded package; they carry no
// diagnostics (rules report, facts summarize), which is what makes sharing
// them across rules sound.

// factKey names one fact family. Families are package-level vars created by
// newFactKey, so two rules asking for the same family share one computation.
type factKey struct{ name string }

func newFactKey(name string) *factKey { return &factKey{name: name} }

// fact returns the memoized fact of the given family for pkg, computing it
// on first request. compute must depend only on pkg (and packages reachable
// through the loader), never on the requesting rule or pass.
func (l *Loader) fact(key *factKey, pkg *Package, compute func(*Package) any) any {
	if l.facts == nil {
		l.facts = map[*factKey]map[*Package]any{}
	}
	byPkg := l.facts[key]
	if byPkg == nil {
		byPkg = map[*Package]any{}
		l.facts[key] = byPkg
	}
	if v, ok := byPkg[pkg]; ok {
		return v
	}
	// Reserve the slot before computing so a recursive self-request is an
	// immediate nil rather than an infinite regress.
	byPkg[pkg] = nil
	v := compute(pkg)
	byPkg[pkg] = v
	return v
}

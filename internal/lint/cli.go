package lint

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Exit codes of the nifdy-lint command.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one diagnostic survived suppression
	ExitError    = 2 // usage, load, or type-check failure
)

// CLI runs the analyzer suite as the nifdy-lint command would: args are the
// command-line arguments after the program name; diagnostics go to stdout,
// errors to stderr. It returns the process exit code.
//
// Usage: nifdy-lint [-rules a,b] [-C dir] [import paths...]
// With no paths, the whole module is analyzed.
func CLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nifdy-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ruleNames := fs.String("rules", "", "comma-separated rules to run (default: all)")
	chdir := fs.String("C", ".", "module root or any directory inside it")
	list := fs.Bool("list", false, "list registered rules and exit")
	budget := fs.Duration("budget", 0, "fail if loading+analysis exceeds this wall-clock budget (0: no budget)")
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	if *list {
		for _, r := range Rules() {
			fmt.Fprintf(stdout, "%-11s %s\n", r.Name, r.Doc)
		}
		return ExitClean
	}

	rules := Rules()
	full := true
	if *ruleNames != "" {
		rules = rules[:0:0]
		for _, name := range strings.Split(*ruleNames, ",") {
			r := RuleByName(strings.TrimSpace(name))
			if r == nil {
				fmt.Fprintf(stderr, "nifdy-lint: unknown rule %q (try -list)\n", name)
				return ExitError
			}
			rules = append(rules, r)
		}
		full = len(rules) == len(Rules())
	}

	root, err := FindModuleRoot(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, "nifdy-lint:", err)
		return ExitError
	}
	l, err := NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "nifdy-lint:", err)
		return ExitError
	}

	paths := fs.Args()
	if len(paths) == 0 {
		paths, err = l.ModulePackages()
		if err != nil {
			fmt.Fprintln(stderr, "nifdy-lint:", err)
			return ExitError
		}
	} else {
		full = false
		sort.Strings(paths)
	}

	// The budget clock covers load + analysis, the part that scales with the
	// module: the suite must stay fast enough to run on every push (make
	// lint passes a budget), so an analyzer that goes quadratic fails
	// loudly here instead of quietly eating the gate.
	start := time.Now()
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "nifdy-lint:", err)
			return ExitError
		}
		pkgs = append(pkgs, pkg)
	}

	diags := Run(l, pkgs, rules, full)
	elapsed := time.Since(start)
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "nifdy-lint: load+analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *budget)
		return ExitError
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "nifdy-lint: %d finding(s)\n", len(diags))
		return ExitFindings
	}
	return ExitClean
}

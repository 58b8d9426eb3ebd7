package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentIDs drives the built binary: an unknown id exits 2 with a
// message that lists every id of the experiments table, as the -exp help
// does, and the ids and the flag that left with the second bench schema are
// refused like any other.
func TestExperimentIDs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nifdy-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	refused := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("nifdy-bench %v: %v, want exit status 2\n%s", args, err, out)
		}
		return string(out)
	}

	if msg := refused("-exp", "nosuch"); !strings.Contains(msg, expIDs()) {
		t.Errorf("unknown-id message does not list the table's ids %s:\n%s", expIDs(), msg)
	}
	// A bad id anywhere in the list stops the run before the first experiment.
	if out := refused("-exp", "t2,nosuch"); strings.Contains(out, "took") {
		t.Errorf("ran an experiment before refusing the list:\n%s", out)
	}
	refused("-exp", "scale")
	refused("-exp", "dist")
	// A deleted flag prints the usage text, whose -exp line is the same list.
	if usage := refused("-json", "x"); !strings.Contains(usage, expIDs()) {
		t.Errorf("-exp help does not list the table's ids %s:\n%s", expIDs(), usage)
	}
}

// TestReadmeListsExperimentIDs holds README's id list to the table.
func TestReadmeListsExperimentIDs(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := "Experiment ids: `" + strings.ReplaceAll(expIDs(), ",", " ") + "`"
	if !strings.Contains(strings.Join(strings.Fields(string(readme)), " "), want) {
		t.Errorf("README.md does not say %q", want)
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"

	"crashsim/internal/bench"
)

// TestUnknownExperimentListsTable: an unknown name runs nothing and
// the error lists exactly the experiments table's names, in order,
// with "all" last.
func TestUnknownExperimentListsTable(t *testing.T) {
	printed := 0
	err := run("nope", bench.Config{}, func(*bench.Report) error { printed++; return nil })
	if err == nil || printed != 0 {
		t.Fatalf("run(nope): error %v after %d reports, want an error and none", err, printed)
	}
	var names []string
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.name == "all" || seen[e.name] {
			t.Fatalf("experiment name %q is empty, reserved or repeated", e.name)
		}
		seen[e.name] = true
		names = append(names, e.name)
	}
	want := fmt.Sprintf("unknown experiment %q (want %s, all)", "nope", strings.Join(names, ", "))
	if err.Error() != want {
		t.Fatalf("run(nope) error\n  %s\nwant\n  %s", err, want)
	}
}

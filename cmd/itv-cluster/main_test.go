package main

import (
	"strings"
	"testing"
)

// TestRun drives a short load on the Orlando cluster in simulated time and
// requires the run's last word: every settop's movie closed, every
// connection reclaimed, and the fabric's bandwidth accounting consistent.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-settops", "6", "-minutes", "2", "-seed", "1995"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "run complete: all connections drained") {
		t.Fatalf("no completion line:\n%s", out.String())
	}
}

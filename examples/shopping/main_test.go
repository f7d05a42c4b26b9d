package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestRun runs the shopping session and compares its story line for line:
// the catalog from the database, both orders placed — the second through
// the backup, after the primary crashed — and both on record in key order.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	tuned := regexp.MustCompile(`^tuned to shopping: cover \S+, app in \S+ \(simulated\)$`)
	want := []string{
		"booting the Orlando cluster...",
		"shopping service deployed (primary/backup, state in the database)",
		"", // the tune-in line, matched by tuned
		"catalog: [cable-modem itv-tshirt remote-control]",
		"  ordered itv-tshirt -> 10.5.0.1|itv-tshirt",
		"crashing the shopping primary mid-session...",
		"  ordered cable-modem -> 10.5.0.1|cable-modem",
		"orders on record (from the database):",
		"  10.5.0.1|cable-modem  $99",
		"  10.5.0.1|itv-tshirt  $12",
		"done: two orders, one service crash, zero customer impact",
	}
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), out.String())
	}
	for i := range want {
		if ok := got[i] == want[i] || (want[i] == "" && tuned.MatchString(got[i])); !ok {
			t.Errorf("line %d = %q, want %q", i+1, got[i], want[i])
		}
	}
}

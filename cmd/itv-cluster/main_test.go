package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestRun drives a short load on the Orlando cluster in simulated time and
// requires the run's last word: every settop's movie closed, every
// connection reclaimed, and the fabric's bandwidth accounting consistent.
// With -chaos the run injects faults as well; it must inject at least one,
// and a settop that lost power must boot again.
func TestRun(t *testing.T) {
	lostPower := regexp.MustCompile(`CHAOS: settop (\S+) lost power`)
	for _, args := range [][]string{
		{"-settops", "6", "-minutes", "2", "-seed", "1995"},
		{"-settops", "6", "-minutes", "3", "-seed", "1995", "-chaos"},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: run: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "run complete: all connections drained") {
			t.Fatalf("%s: no completion line:\n%s", args, out.String())
		}
		if args[len(args)-1] != "-chaos" {
			continue
		}
		if !strings.Contains(out.String(), "CHAOS: ") {
			t.Errorf("%s: no fault injected:\n%s", args, out.String())
		}
		for _, m := range lostPower.FindAllStringSubmatch(out.String(), -1) {
			if !strings.Contains(out.String(), "settop "+m[1]+" rebooted") {
				t.Errorf("%s: settop %s lost power and never rebooted:\n%s", args, m[1], out.String())
			}
		}
	}
}

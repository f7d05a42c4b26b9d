package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestRun drives the three ways an operator calls itv-bench: the listing,
// one experiment picked by a case-insensitive id, and an id that names
// nothing.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("-list: %v", err)
	}
	var ids []string
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		ids = append(ids, strings.Fields(l)[0])
	}
	if got, want := strings.Join(ids, " "), "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14"; got != want {
		t.Errorf("-list ids = %s, want %s", got, want)
	}

	out.Reset()
	if err := run([]string{"-only", "e1"}, &out); err != nil {
		t.Fatalf("-only e1: %v\n%s", err, out.String())
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^E1 \(Fig\. 1, §3\.1\): Orlando topology and admission limits$`),
		regexp.MustCompile(`(?m)^  servers +3 *$`),
		regexp.MustCompile(`(?m)^  \[E1 completed in \S+ wall time\]$`),
	} {
		if !want.MatchString(out.String()) {
			t.Errorf("-only e1: no line matching %s in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "E2 ") {
		t.Errorf("-only e1 ran more than E1:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-only", "E99"}, &out); err == nil || !strings.Contains(err.Error(), "-list") {
		t.Errorf("-only E99 = %v, want an error that points at -list", err)
	}
}

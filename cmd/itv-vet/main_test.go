package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"itv/internal/lint"
)

// TestRun drives the command over a scratch module: a clean package, one
// with a finding whose message needs escaping, and one that does not
// type-check.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module vetmod\n\ngo 1.22\n",
		"internal/obs/obs.go": "package obs\n\ntype Registry struct{}\n\nfunc (*Registry) Counter(name string) {}\n",
		"clean/a.go":          "package clean\n\nfunc F() int { return 1 }\n",
		"bad/a.go":            "package bad\n\nimport \"vetmod/internal/obs\"\n\nfunc F(r *obs.Registry) {\n\tr.Counter(\"100%_sure\")\n}\n",
		"broken/a.go":         "package broken\n\nvar X int = \"s\"\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	vet := func(args ...string) (int, string) {
		var out, errOut strings.Builder
		return run(args, &out, &errOut), out.String()
	}

	if code, out := vet("-json", "./clean"); code != 0 || out != "[]\n" {
		t.Errorf("clean package: exit %d, stdout %q; want 0 and []", code, out)
	}

	code, out := vet("-annotate", "./bad")
	var annotations []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "::error ") {
			annotations = append(annotations, line)
		}
	}
	want := `::error file=bad/a.go,line=6,col=12::[obsname] metric name "100%25_sure" is not pkg_noun_verb`
	if code != 1 || len(annotations) != 1 || !strings.HasPrefix(annotations[0], want) {
		t.Errorf("finding: exit %d, annotations %q; want 1 and one line starting %q", code, annotations, want)
	}
	if got := annotationEscape("a%b\r\nc"); got != "a%25b%0D%0Ac" {
		t.Errorf("annotationEscape = %q, want %q", got, "a%25b%0D%0Ac")
	}

	for _, args := range [][]string{{"-checks", "nosuch", "./clean"}, {"./missing"}, {"./broken"}} {
		if code, _ := vet(args...); code != 2 {
			t.Errorf("itv-vet %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}

	code, out = vet("-list")
	var got, wantNames []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	for _, c := range lint.All() {
		wantNames = append(wantNames, c.Name())
	}
	if code != 0 || !slices.Equal(got, wantNames) {
		t.Errorf("-list: exit %d, checks %v; want 0 and %v", code, got, wantNames)
	}
}

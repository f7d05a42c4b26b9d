package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// golden loads one fixture package (dir relative to testdata/mod) and runs
// the named checks over it.  Load refuses a fixture that does not
// type-check: a broken fixture tests nothing.
func golden(t *testing.T, checkNames, dir string) ([]Diagnostic, []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join(root, filepath.FromSlash(dir)))
	if err != nil {
		t.Fatal(err)
	}
	checks, err := ByName(checkNames)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkgs, checks), pkgs
}

// want is one expectation parsed from a `// want "substr"` comment.
type want struct {
	file   string
	line   int
	substr string
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, want{file: name, line: i + 1, substr: m[1]})
			}
		}
	}
	return wants
}

// matchWants asserts diags and wants agree exactly: every want hit,
// nothing unannotated reported.
func matchWants(t *testing.T, diags []Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(wants))
diag:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && w.file == d.File && w.line == d.Line &&
				strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue diag
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

// TestGolden checks, per analyzer, that every `// want` annotation is hit
// (the positive case) and that nothing else is reported (the negative
// case — unannotated lines must stay silent).
func TestGolden(t *testing.T) {
	cases := []struct {
		dir    string
		checks string
	}{
		{"checks/mutexacrossrpc", "mutexacrossrpc"},
		{"checks/rawerrcmp", "rawerrcmp"},
		{"checks/sleepyclock", "sleepyclock"},
		{"checks/sleepyclock_noclock", "sleepyclock"},
		{"checks/mortalref", "mortalref"},
		{"checks/leakygo", "leakygo"},
		{"checks/metricname", "obsname"},
		{"checks/eventname", "obsname"},
		{"checks/walltime", "walltime"},
		{"checks/suppress", "sleepyclock"},
		{"checks/suppress_node", "sleepyclock"},
		{"checks/poolown", "poolown"},
		{"checks/poolown_sign", "poolown"},
		{"checks/poolown_claim", "poolown"},
		{"checks/poolown_seat", "poolown"},
		{"internal/ctxflow", "ctxflow"},
		{"checks/generics", "poolown,ctxflow,mutexacrossrpc"},
		{"checks/multifile", "poolown"},
		{"checks/xtest", "rawerrcmp"},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.dir), func(t *testing.T) {
			diags, pkgs := golden(t, tc.checks, tc.dir)
			var wants []want
			for _, pkg := range pkgs {
				wants = append(wants, collectWants(t, pkg)...)
			}
			matchWants(t, diags, wants)
		})
	}
}

// TestMalformedDirective: a //lint:ignore with no reason is itself
// reported, and the finding it meant to silence survives.  (Asserted
// directly: a want comment cannot share a line with the directive.)
func TestMalformedDirective(t *testing.T) {
	diags, _ := golden(t, "sleepyclock", "checks/directive")
	var gotDirective, gotSleepy bool
	for _, d := range diags {
		switch d.Check {
		case "directive":
			gotDirective = true
			if !strings.Contains(d.Message, "malformed") {
				t.Errorf("directive diagnostic should say malformed: %s", d)
			}
		case "sleepyclock":
			gotSleepy = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotDirective {
		t.Error("missing diagnostic for the malformed //lint:ignore directive")
	}
	if !gotSleepy {
		t.Error("the malformed directive must not suppress the sleepyclock finding")
	}
}

// TestExpandPatterns pins the pattern grammar the CI gate relies on.
func TestExpandPatterns(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("./... expanded to nothing")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") && !strings.HasPrefix(d, root) {
			t.Errorf("escaped the fixture module: %s", d)
		}
	}
	one, err := loader.ExpandPatterns([]string{"internal/orb"})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(root, "internal", "orb"); len(one) != 1 || one[0] != want {
		t.Errorf("ExpandPatterns(internal/orb) = %v, want [%s]", one, want)
	}
}

// TestDiagnosticString pins the human output format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "rawerrcmp", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: [rawerrcmp] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); got != d.String() {
		t.Errorf("Sprint mismatch: %q", got)
	}
}

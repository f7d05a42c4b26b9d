package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// golden loads fixture packages (dirs relative to testdata/mod) and runs
// the named checks over them as one unit set.  Fixtures must type-check
// cleanly: a broken fixture tests nothing.
func golden(t *testing.T, checkNames string, dirs ...string) ([]Diagnostic, []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatal(err)
		}
		for _, te := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", dir, te)
		}
		pkgs = append(pkgs, pkg)
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

func collectWants(t *testing.T, pkgs []*Package) []want {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
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
		{"checks/metricname", "metricname"},
		{"checks/eventname", "eventname"},
		{"checks/walltime", "walltime"},
		{"checks/suppress", "sleepyclock"},
		{"checks/suppress_node", "sleepyclock"},
		{"checks/poolown", "poolown"},
		{"checks/poolown_sign", "poolown"},
		{"checks/poolown_claim", "poolown"},
		{"checks/poolown_seat", "poolown"},
		{"internal/ctxflow", "ctxflow"},
		{"checks/lockorder", "lockorder"},
		{"checks/generics", "poolown,ctxflow,lockorder"},
		{"checks/multifile", "poolown"},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.dir), func(t *testing.T) {
			diags, pkgs := golden(t, tc.checks, tc.dir)
			matchWants(t, diags, collectWants(t, pkgs))
		})
	}
}

// TestLockOrderModule exercises the interprocedural, cross-package side
// of lockorder: the fixture's own lock is held across a call into the
// fixture orb package, whose Register acquires further locks.  That edge
// only exists when both packages are analyzed together — a single-unit
// run must stay silent.
func TestLockOrderModule(t *testing.T) {
	diags, pkgs := golden(t, "lockorder", "checks/lockorder_xpkg", "internal/orb")
	matchWants(t, diags, collectWants(t, pkgs))

	solo, _ := golden(t, "lockorder", "checks/lockorder_xpkg")
	for _, d := range solo {
		t.Errorf("without the callee's package the edge should be invisible, got: %s", d)
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

// TestFixRawErrCmp drives the -fix rewriter over a scratch module and
// checks the mechanical rewrite, the import insertion, and that
// suppressed comparisons are left alone.
func TestFixRawErrCmp(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixmod\n\ngo 1.22\n")
	write("a.go", `package p

import "errors"

var ErrX = errors.New("x")

func f(err error) bool {
	if err == ErrX {
		return true
	}
	return err != ErrX
}

func g(err error) bool {
	//lint:ignore rawerrcmp identity is intentional here
	return err == ErrX
}
`)
	write("b.go", `package p

func h(err error) bool { return err == ErrX }
`)

	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := FixRawErrCmp([]*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 {
		t.Fatalf("changed = %v, want both files", changed)
	}

	a, _ := os.ReadFile(filepath.Join(dir, "a.go"))
	for _, wantStr := range []string{"errors.Is(err, ErrX)", "!errors.Is(err, ErrX)"} {
		if !strings.Contains(string(a), wantStr) {
			t.Errorf("a.go missing %q after fix:\n%s", wantStr, a)
		}
	}
	if !strings.Contains(string(a), "//lint:ignore rawerrcmp identity is intentional here\n\treturn err == ErrX") {
		t.Errorf("suppressed comparison was rewritten:\n%s", a)
	}

	b, _ := os.ReadFile(filepath.Join(dir, "b.go"))
	if !strings.Contains(string(b), `import "errors"`) {
		t.Errorf("b.go missing errors import after fix:\n%s", b)
	}
	if !strings.Contains(string(b), "errors.Is(err, ErrX)") {
		t.Errorf("b.go not rewritten:\n%s", b)
	}

	// The fixed tree must still lint clean for rawerrcmp.
	pkg2, err := loader2(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	checks, _ := ByName("rawerrcmp")
	if diags := Run([]*Package{pkg2}, checks); len(diags) != 0 {
		t.Errorf("fixed tree still has rawerrcmp findings: %v", diags)
	}
}

// loader2 reloads a directory with a fresh loader (the first loader's
// file set still holds the pre-fix byte offsets).
func loader2(t *testing.T, dir string) (*Package, error) {
	t.Helper()
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	return l.Load(dir)
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

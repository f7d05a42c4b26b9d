package itv

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The docs name only what exists: every test, benchmark or fuzz target a
// document cites in backticks is defined by some _test.go in the tree, and
// every Go file it cites in backticks exists, with at least as many lines
// as a cited line number (`seat.go:118`) or range (`seat.go:118–130`).  A
// cited path matches any file whose path ends with it, so `seat.go` and
// `orb/seat.go` both name internal/orb/seat.go.  A historical mention of
// something deleted is written without backticks and says it was deleted.

// checkedDocs are the documents held to the rule.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// pendingDocs are held to it once they can be edited: bench/ is the
// benchmark's, changed only together with it.
var pendingDocs = []string{"bench/README.md"}

var (
	backticked = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	goFile     = regexp.MustCompile(`[\w./-]*\w\.go(?::(\d+)(?:[–-](\d+))?)?\b`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// tree is what a document may cite: the test functions and the Go files
// of the repository, each file with its line count.
type tree struct {
	tests map[string]bool
	lines map[string]int // by slash path from the root
}

func readTree(t *testing.T) *tree {
	tr := &tree{tests: map[string]bool{}, lines: map[string]int{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tr.lines[filepath.ToSlash(path)] = strings.Count(string(b), "\n")
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
				tr.tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// longest returns the most lines of any file whose path ends with cited,
// and false if there is none.
func (tr *tree) longest(cited string) (int, bool) {
	n, ok := 0, false
	for path, lines := range tr.lines {
		if path == cited || strings.HasSuffix(path, "/"+cited) {
			n, ok = max(n, lines), true
		}
	}
	return n, ok
}

// stale returns what doc cites in backticks that the tree does not have.
func (tr *tree) stale(doc string) []string {
	var bad []string
	for _, span := range backticked.FindAllString(doc, -1) {
		for _, name := range testName.FindAllString(span, -1) {
			if !tr.tests[name] {
				bad = append(bad, name+": no such test")
			}
		}
		for _, m := range goFile.FindAllStringSubmatch(span, -1) {
			path, _, _ := strings.Cut(m[0], ":")
			lines, ok := tr.longest(strings.TrimPrefix(path, "./"))
			want, _ := strconv.Atoi(m[1])
			if hi, _ := strconv.Atoi(m[2]); hi > want {
				want = hi
			}
			switch {
			case !ok:
				bad = append(bad, m[0]+": no such file")
			case lines < want:
				bad = append(bad, m[0]+": the file has "+strconv.Itoa(lines)+" lines")
			}
		}
	}
	return bad
}

func TestDocsNameOnlyWhatExists(t *testing.T) {
	tr := readTree(t)
	for _, name := range checkedDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.stale(string(b)) {
			t.Errorf("%s cites %s", name, s)
		}
	}
	t.Logf("pending, not checked: %s", strings.Join(pendingDocs, ", "))

	// The check itself: a document citing what is missing fails on each.
	doc := "`TestDocsNameOnlyWhatExists` in `docs_test.go:1`; `go test -run TestNoSuchThing`;\n" +
		"```\nnosuch.go\ndoc.go:99999\n```\n"
	want := []string{"TestNoSuchThing: no such test", "nosuch.go: no such file", "doc.go:99999: the file has"}
	got := tr.stale(doc)
	if len(got) != len(want) {
		t.Fatalf("stale(%q) = %q, want %q", doc, got, want)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("stale(%q)[%d] = %q, want %q…", doc, i, got[i], want[i])
		}
	}
}

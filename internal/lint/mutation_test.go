package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is a one-line regression of today's tree that one check exists
// to catch: old, which must occur exactly once in file, becomes new, and
// the check must report on each line where one of at begins (new, when at
// is empty).
type mutation struct {
	check, file, old, new string
	at                    []string
}

// mutations gives each registered check the regression it must catch;
// DESIGN.md §8's "fires on" column lists the same nine.
var mutations = []mutation{
	{check: "ctxflow", file: "internal/names/replica.go",
		old: `_ = r.ep.InvokeCtx(ctx, r.peerRef(p), "update",`,
		new: `_ = r.ep.Invoke(r.peerRef(p), "update",`},
	{check: "mutexacrossrpc", file: "internal/core/core.go",
		old: "cached := rb.ref\n\trb.mu.Unlock()\n", new: "cached := rb.ref\n",
		at: []string{"ref, err = rb.s.Root.ResolveAsCtx(", "ref, err = rb.s.Root.ResolveCtx("}},
	{check: "rawerrcmp", file: "internal/orb/endpoint.go",
		old: "sms == nil && !errors.Is(err, ErrNoSuchMethod)",
		new: "sms == nil && err != ErrNoSuchMethod"},
	{check: "sleepyclock", file: "internal/cluster/cluster.go",
		old: "c.Clk.Sleep(10 * time.Millisecond)", new: "time.Sleep(10 * time.Millisecond)"},
	{check: "poolown", file: "internal/orb/client.go",
		old: "putRequest(req)\n\t\t\twire.PutEncoder(enc)\n\t\t\treturn 0, Errf(ExcDenied",
		new: "putRequest(req)\n\t\t\treturn 0, Errf(ExcDenied",
		at:  []string{"enc := wire.GetEncoder()\n\tif put != nil {\n\t\tput(enc)\n\t}\n\treq := getRequest()"}},
	{check: "mortalref", file: "internal/mms/mms.go",
		old: "_ = (media.Stub{Ep: s.sess.Ep, Ref: om.MDSRef}).CloseMovie(",
		new: "(media.Stub{Ep: s.sess.Ep, Ref: om.MDSRef}).CloseMovie("},
	{check: "leakygo", file: "internal/clock/loop.go",
		old: "select {\n\t\t\tcase <-l.stop:\n\t\t\t\treturn\n\t\t\tcase now := <-tick.C():\n\t\t\t\tf(now)\n\t\t\t}",
		new: "f(clk.Now()); clk.Sleep(d)",
		at:  []string{"for {\n\t\t\tf(clk.Now())"}},
	{check: "walltime", file: "internal/orb/framewriter.go",
		old: `m.rec.Record(m.hlc.Physical(), m.trace, "slow_call_recorded",`,
		new: `m.rec.Record(time.Now(), m.trace, "slow_call_recorded",`},
	{check: "obsname", file: "internal/names/replica.go",
		old: `"names_resolves"`, new: `"namesResolves"`},
	{check: "obsname", file: "internal/names/replica.go",
		old: `"names_audit_evicted"`, new: `"auditEvicted"`},
}

// TestAnalyzersFireOnTheirMutation applies every mutation to a copy of the
// module, loads the touched packages once, and requires each check to
// report at its own mutation and nowhere else: a check no mutation of the
// tree fires does not earn its keep.
func TestAnalyzersFireOnTheirMutation(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copyModule(t, src, root)
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, m := range mutations {
		path := filepath.Join(root, filepath.FromSlash(m.file))
		text := read(path)
		if n := strings.Count(text, m.old); n != 1 {
			t.Fatalf("%s: %q occurs %d times in %s, want once", m.check, m.old, n, m.file)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(text, m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type site struct {
		file string
		line int
	}
	want := make(map[site]string)
	dirs := make(map[string]bool)
	for _, m := range mutations {
		path := filepath.Join(root, filepath.FromSlash(m.file))
		text := read(path)
		at := m.at
		if at == nil {
			at = []string{m.new}
		}
		for _, s := range at {
			if n := strings.Count(text, s); n != 1 {
				t.Fatalf("%s: %q occurs %d times in mutated %s, want once", m.check, s, n, m.file)
			}
			want[site{path, strings.Count(text[:strings.Index(text, s)], "\n") + 1}] = m.check
		}
		dirs[filepath.Dir(path)] = true
	}

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for dir := range dirs {
		loaded, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	got := make(map[site]bool)
	for _, d := range Run(pkgs, All()) {
		s := site{d.File, d.Line}
		if want[s] != d.Check {
			t.Errorf("finding away from its mutation: %s", d)
			continue
		}
		got[s] = true
	}
	for s, check := range want {
		if !got[s] {
			t.Errorf("%s did not fire on its mutation at %s:%d", check, s.file, s.line)
		}
	}
}

// copyModule copies the module's go.mod and Go sources from src to dst,
// leaving out what ./... leaves out (testdata, dot and underscore
// directories) and nested modules.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != src {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analysis unit: a directory's package compiled together
// with its in-package _test.go files (the compilation unit `go test`
// builds), plus the type information the checks consult.
type Package struct {
	// Path is the import path ("itv/internal/orb").
	Path string
	// ModPath is the module path ("itv"); checks use it to name sibling
	// packages such as ModPath+"/internal/clock".
	ModPath string
	// Fset positions every file in this load.
	Fset *token.FileSet
	// Files is the parsed syntax, test files included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info maps syntax to type information.
	Info *types.Info
}

// Loader parses and type-checks the module's packages directly with
// go/parser and go/types — no golang.org/x/tools dependency.  Standard
// library imports are satisfied by the stdlib source importer
// (go/importer "source" mode); module-internal imports are satisfied by
// recursively loading the sibling directory (without test files, the way
// an importer sees a package).
type Loader struct {
	ModRoot string
	ModPath string

	fset      *token.FileSet
	std       types.ImporterFrom
	exports   map[string]*types.Package // import path -> export view (no tests)
	exporting map[string]bool           // cycle guard
}

// NewLoader builds a loader rooted at the directory containing go.mod.
// Pass any directory inside the module; the root is found by walking up.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if std == nil {
		return nil, fmt.Errorf("lint: stdlib source importer unavailable")
	}
	return &Loader{
		ModRoot:   root,
		ModPath:   modPath,
		fset:      fset,
		std:       std,
		exports:   make(map[string]*types.Package),
		exporting: make(map[string]bool),
	}, nil
}

func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// ExpandPatterns resolves command-line package patterns to directories.
// Supported forms: "./..." (every package under the module), a directory
// path ("./internal/orb" or "internal/orb"), and "dir/..." prefixes.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, matching the go tool.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.walkDirs(l.ModRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			all, err := l.walkDirs(l.absDir(base))
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
		default:
			add(l.absDir(pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) absDir(pat string) string {
	if strings.HasPrefix(pat, l.ModPath+"/") {
		pat = strings.TrimPrefix(pat, l.ModPath+"/")
	} else if pat == l.ModPath {
		pat = "."
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.ModRoot, pat)
}

func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the Go files of dir that the go tool builds with no tags
// set, test files only when withTests is set.  Honouring build
// constraints keeps a pair like race_on_test.go and race_off_test.go from
// meeting in one unit.
func (l *Loader) parseDir(dir string, withTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load type-checks one directory as analysis units, test files included:
// the package with its in-package tests and, if there is one, its
// external test package (p_test), which imports p as that first unit, the
// way `go test` builds it.  A parse or type error fails the load, so
// every check runs on complete type information.  An in-package test file
// may import a sibling that imports this package back; that inner edge
// resolves to the export view (no tests), which l.export provides.
func (l *Loader) Load(dir string) ([]*Package, error) {
	dir = filepath.Clean(dir)
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var in, ext []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			in = append(in, f)
		}
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var pkgs []*Package
	var imp types.Importer = l
	for _, files := range [][]*ast.File{in, ext} {
		if len(files) == 0 {
			break
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := l.check(path, files, info, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{Path: path, ModPath: l.ModPath, Fset: l.fset, Files: files, Types: tpkg, Info: info})
		imp, path = withPackage{l, tpkg}, path+"_test"
	}
	return pkgs, nil
}

// withPackage imports p as itself and every other path as the loader
// does: an external test package's view of the package it tests.
type withPackage struct {
	*Loader
	p *types.Package
}

func (w withPackage) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == w.p.Path() {
		return w.p, nil
	}
	return w.Loader.ImportFrom(path, dir, mode)
}

// check type-checks files as package path and reports every complaint,
// not just the first: a failed load is the hardest state to debug from
// the command line.
func (l *Loader) check(path string, files []*ast.File, info *types.Info, imp types.Importer) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer:    imp,
		Error:       func(err error) { errs = append(errs, err) },
		FakeImportC: true,
	}
	p, _ := conf.Check(path, l.fset, files, info)
	return p, errors.Join(errs...)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from source within the module; everything else is delegated to the
// stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		return l.export(path)
	}
	return l.std.ImportFrom(path, l.ModRoot, 0)
}

// export returns the import-time view of a module package: its non-test
// files, type-checked and memoized.
func (l *Loader) export(path string) (*types.Package, error) {
	if p, ok := l.exports[path]; ok {
		return p, nil
	}
	if l.exporting[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.exporting[path] = true
	defer delete(l.exporting, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p, err := l.check(path, files, nil, l)
	if err != nil {
		return nil, err
	}
	l.exports[path] = p
	return p, nil
}

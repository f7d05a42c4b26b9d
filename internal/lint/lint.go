// Package lint is itv-vet's analyzer framework: a registry of
// project-specific checks that enforce the OCS concurrency and
// failure-handling invariants the Go compiler cannot see — object
// references are mortal, services never block a mutex on a remote
// invocation, recovery logic runs on the injected clock, goroutines have a
// way to stop, and metric names follow one family convention.
//
// The framework is built directly on go/parser and go/types (see load.go);
// it deliberately has no dependency outside the standard library so the
// gate runs anywhere the toolchain does.  Every check sees complete type
// information: a package that does not type-check fails the load.  Checks
// report file:line:col diagnostics; a `//lint:ignore <check> <reason>`
// comment on the offending line (or the line above it) suppresses a
// finding, and the reason is mandatory so every suppression documents why
// the invariant does not apply.  A directive that names no check, or
// suppresses nothing, is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed for humans and (via JSON) for CI.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one analyzer.
type Check interface {
	// Name is the registry key used in diagnostics and suppressions.
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	// Run inspects one package and reports through the pass.
	Run(p *Pass)
}

// Pass carries one (check, package) execution.
type Pass struct {
	Pkg   *Package
	check string
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, diagnosticAt(p.Pkg.Fset.Position(pos), p.check, fmt.Sprintf(format, args...)))
}

func diagnosticAt(pos token.Position, check, msg string) Diagnostic {
	return Diagnostic{Check: check, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// TypeOf returns the type of e.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// IsNil reports whether e is the untyped nil.
func (p *Pass) IsNil(e ast.Expr) bool { return p.Pkg.Info.Types[e].IsNil() }

// PkgFunc matches a call to pkgPath.name (e.g. "time".Sleep).
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// Imports reports whether any file of the unit imports path.
func (p *Pass) Imports(path string) bool {
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == path {
				return true
			}
		}
	}
	return false
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies error.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// namedFrom unwraps aliases and pointers down to a named type, or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = deref(types.Unalias(t))
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

// isNamed reports whether t is (a pointer to) the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// ---- suppression ----

// IgnorePrefix starts a suppression comment: //lint:ignore <check> <reason>.
const IgnorePrefix = "lint:ignore"

type suppression struct {
	check string
	pos   token.Position // of the directive
	used  bool           // it covered at least one finding
	// Node anchor: the span of the statement/declaration the directive is
	// attached to.  A directive on its own line anchors to the leftmost
	// node starting on the next line; a trailing directive anchors to the
	// leftmost node starting earlier on its own line.  Anchoring means an
	// unrelated second statement sharing the line cannot ride along on
	// someone else's suppression.  startLine==0 means no anchor resolved
	// (directive past a multi-line statement's end, stray comment); those
	// fall back to the historical exact-line match.
	startLine, startCol int
	endLine, endCol     int
}

// suppressions scans a unit's comments.  Malformed directives (missing
// check name or reason) are themselves reported, so a suppression can
// never silently rot into a no-op.
func collectSuppressions(pkg *Package) (map[string][]*suppression, []Diagnostic) {
	bySite := make(map[string][]*suppression)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, IgnorePrefix))
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, diagnosticAt(pos, "directive", "malformed //lint:ignore: need a check name and a reason"))
					continue
				}
				s := suppression{pos: pos}
				if anchor := anchorNode(pkg, f, pos.Line, pos.Column); anchor != nil {
					start := pkg.Fset.Position(anchor.Pos())
					end := pkg.Fset.Position(anchor.End())
					s.startLine, s.startCol = start.Line, start.Column
					s.endLine, s.endCol = end.Line, end.Column
				}
				for _, name := range strings.Split(fields[0], ",") {
					one := s
					one.check = name
					bySite[pos.Filename] = append(bySite[pos.Filename], &one)
				}
			}
		}
	}
	return bySite, bad
}

// anchorNode resolves the statement/declaration a directive at
// (line, col) governs: the leftmost node starting before it on the same
// line (trailing comment), else the leftmost node starting on the next
// line (directive on its own line).
func anchorNode(pkg *Package, f *ast.File, line, col int) ast.Node {
	var trailing, below ast.Node
	better := func(cur ast.Node, n ast.Node) bool {
		return cur == nil || pkg.Fset.Position(n.Pos()).Column < pkg.Fset.Position(cur.Pos()).Column
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, ast.Decl, ast.Spec, *ast.Field:
		default:
			return true
		}
		pos := pkg.Fset.Position(n.Pos())
		switch {
		case pos.Line == line && pos.Column < col:
			if better(trailing, n) {
				trailing = n
			}
		case pos.Line == line+1:
			if better(below, n) {
				below = n
			}
		}
		return true
	})
	if trailing != nil {
		return trailing
	}
	return below
}

// suppressed reports whether a directive covers d, marking every directive
// that does as used.
func suppressed(sups map[string][]*suppression, d Diagnostic) bool {
	hit := false
	for _, s := range sups[d.File] {
		if s.check != d.Check && s.check != "all" {
			continue
		}
		covers := s.pos.Line == d.Line || s.pos.Line == d.Line-1 // no anchor: exact line
		if s.startLine != 0 {
			after := d.Line > s.startLine || (d.Line == s.startLine && d.Col >= s.startCol)
			before := d.Line < s.endLine || (d.Line == s.endLine && d.Col <= s.endCol)
			covers = after && before
		}
		if covers {
			s.used, hit = true, true
		}
	}
	return hit
}

// staleDirectives reports the directives that name no registered check,
// or name a check that ran over the unit and suppressed nothing: left in
// place, either would silently cover the next real finding on its
// statement.
func staleDirectives(sups map[string][]*suppression, ran map[string]bool) []Diagnostic {
	registered := map[string]bool{"all": true}
	for _, c := range All() {
		registered[c.Name()] = true
	}
	var out []Diagnostic
	for _, list := range sups {
		for _, s := range list {
			switch {
			case !registered[s.check]:
				out = append(out, diagnosticAt(s.pos, "directive", fmt.Sprintf("//lint:ignore names unknown check %q", s.check)))
			case ran[s.check] && !s.used:
				out = append(out, diagnosticAt(s.pos, "directive", fmt.Sprintf("//lint:ignore %s suppresses nothing here; delete it", s.check)))
			}
		}
	}
	return out
}

// Run executes checks over packages, applies suppressions, reports stale
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, checks []Check) []Diagnostic {
	ran := make(map[string]bool)
	for _, c := range checks {
		ran[c.Name()] = true
	}
	ran["all"] = len(ran) == len(All())
	var out []Diagnostic
	for _, pkg := range pkgs {
		sups, bad := collectSuppressions(pkg)
		out = append(out, bad...)
		for _, c := range checks {
			pass := &Pass{Pkg: pkg, check: c.Name()}
			c.Run(pass)
			for _, d := range pass.diags {
				if !suppressed(sups, d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, staleDirectives(sups, ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

// All returns the full registry in stable order.
func All() []Check {
	return []Check{
		mutexAcrossRPC{},
		rawErrCmp{},
		sleepyClock{},
		mortalRef{},
		leakyGo{},
		obsName{},
		wallTime{},
		poolOwn{},
		ctxFlow{},
	}
}

// ByName resolves a comma-separated check list; unknown names error.
func ByName(names string) ([]Check, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]Check)
	for _, c := range All() {
		byName[c.Name()] = c
	}
	var out []Check
	for _, n := range strings.Split(names, ",") {
		c, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// walkFuncs visits every function body in the unit — declarations and
// literals — calling fn with the enclosing node and body.  Literals are
// visited as functions in their own right; lock-state analyses must not
// leak across the goroutine/closure boundary.
func walkFuncs(pkg *Package, fn func(node ast.Node, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n, n.Body)
				}
			case *ast.FuncLit:
				fn(n, n.Body)
			}
			return true
		})
	}
}

// inspectShallow walks n but does not descend into nested function
// literals: their bodies execute on their own schedule.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(child ast.Node) bool {
		if _, ok := child.(*ast.FuncLit); ok && child != n {
			return false
		}
		return fn(child)
	})
}

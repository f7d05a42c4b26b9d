package lint

import (
	"go/ast"
	"go/token"
)

// rawerrcmp: `==`/`!=` against error values instead of errors.Is.
//
// Since the ORB wraps transport failures in *orb.ConnError (preserving
// read vs decode vs write vs timeout causes while still matching
// ErrUnreachable through Unwrap), a raw pointer comparison against a
// sentinel silently stops matching the moment anyone adds a wrapping
// layer — which is exactly how `err == ErrNoSuchMethod` rotted in
// endpoint.go.  Object mortality (§8.2) is decided by these checks, so
// they must see through wrapping: always errors.Is.
type rawErrCmp struct{}

func (rawErrCmp) Name() string { return "rawerrcmp" }
func (rawErrCmp) Doc() string {
	return "raw ==/!= comparison of error values; use errors.Is so wrapped failures (orb.ConnError) still match"
}

func (rawErrCmp) Run(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				// err == nil is the one sanctioned identity test.
				if (n.Op == token.EQL || n.Op == token.NEQ) && !p.IsNil(n.X) && !p.IsNil(n.Y) &&
					(implementsError(p.TypeOf(n.X)) || implementsError(p.TypeOf(n.Y))) {
					p.Reportf(n.OpPos,
						"error compared with %s; use errors.Is (sentinels may arrive wrapped, e.g. in *orb.ConnError)", n.Op)
				}
			case *ast.SwitchStmt:
				// switch err { case ErrX: } is the same comparison in clause clothing.
				if n.Tag == nil || !implementsError(p.TypeOf(n.Tag)) {
					return true
				}
				for _, stmt := range n.Body.List {
					for _, e := range stmt.(*ast.CaseClause).List {
						if !p.IsNil(e) {
							p.Reportf(e.Pos(),
								"switch on an error value compares identities; use a switch { case errors.Is(...) } ladder")
						}
					}
				}
			}
			return true
		})
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxFlow enforces the context plumbing discipline in library code: a
// function that was handed a context.Context must thread it — or a
// context derived from it — into the calls it makes, not mint a fresh
// context.Background()/TODO().  The incoming ctx carries the trace span,
// the TraceSink/ClockSink, the HLC coupling, and the caller's deadline;
// a minted context silently severs all four, which is exactly the bug
// class that makes a failover reconstruct as disconnected fragments in
// the flight recorder.
//
// The analysis is provenance dataflow on the function's CFG: ctx-typed
// values are either derived from the incoming parameter (through
// context.With*), or fresh.  A fresh ctx passed to any ctx-taking call
// is reported.  The companion syntactic rule flags calls to a method M
// with no ctx parameter when the receiver also offers MCtx — Invoke vs
// InvokeCtx, Running vs RunningCtx.
type ctxFlow struct{}

func (ctxFlow) Name() string { return "ctxflow" }
func (ctxFlow) Doc() string {
	return "library code must thread its incoming context.Context, not mint context.Background()"
}

// Provenance lattice.
const (
	cIncoming absVal = iota + 1 // derived from the incoming ctx parameter
	cFresh                      // minted via context.Background()/TODO()
)

// ctxJoin is optimistic: a value that is incoming-derived on any path is
// treated as threaded (no false positives at merges).
func ctxJoin(a, b absVal) absVal {
	if a == b {
		return a
	}
	return cIncoming
}

func isCtxType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

func (ctxFlow) Run(p *Pass) {
	if !strings.HasPrefix(p.Pkg.Path, p.Pkg.ModPath+"/internal/") {
		return
	}
	testFiles := make(map[*ast.File]bool)
	for _, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			testFiles[f] = true
		}
	}
	for _, f := range p.Pkg.Files {
		if testFiles[f] {
			continue // tests mint contexts legitimately
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ftype, body = n.Type, n.Body
			case *ast.FuncLit:
				ftype, body = n.Type, n.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			cf := &ctxFunc{p: p}
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					if v, ok := p.Pkg.Info.Defs[name].(*types.Var); ok && isCtxType(v.Type()) {
						cf.params = append(cf.params, v)
					}
				}
			}
			if len(cf.params) == 0 {
				return true // nothing to thread; Background() is the only option
			}
			cfg := buildCFG(body)
			seed := flowState{}
			for _, v := range cf.params {
				seed[v] = cIncoming
			}
			runForwardSeeded(cfg, &flowAnalysis{joinVal: ctxJoin, transfer: cf.transfer}, seed)
			return true // literals nested inside get their own visit
		})
	}
}

type ctxFunc struct {
	p      *Pass
	params []*types.Var
}

// prov computes the provenance of a ctx-typed expression: bottom when
// unknown (stay silent), cIncoming when derived from the parameter,
// cFresh when minted here.
func (c *ctxFunc) prov(s flowState, e ast.Expr) absVal {
	switch e := e.(type) {
	case *ast.Ident:
		if v, _ := c.p.Pkg.Info.Uses[e].(*types.Var); v != nil {
			return s[v]
		}
	case *ast.CallExpr:
		if c.p.PkgFunc(e, "context", "Background") || c.p.PkgFunc(e, "context", "TODO") {
			return cFresh
		}
		// context.WithCancel/WithTimeout/WithValue/...: provenance of the
		// parent ctx argument.
		if fn, _ := calleeObject(c.p, e).(*types.Func); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			for _, arg := range e.Args {
				if isCtxType(c.p.TypeOf(arg)) {
					return c.prov(s, arg)
				}
			}
		}
	}
	return 0
}

func (c *ctxFunc) transfer(s flowState, n ast.Node, report bool) {
	// Track assignments of ctx-typed values first, so uses in the same
	// statement (rare) see the updated state only afterwards.
	if as, ok := n.(*ast.AssignStmt); ok {
		if len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				c.assignCtx(s, lhs, c.prov(s, as.Rhs[i]))
			}
		} else if len(as.Rhs) == 1 {
			// ctx, cancel := context.WithTimeout(parent, d)
			pv := c.prov(s, as.Rhs[0])
			for _, lhs := range as.Lhs {
				c.assignCtx(s, lhs, pv)
			}
		}
	}

	flowInspect(n, func(child ast.Node) bool {
		call, ok := child.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.checkCall(s, call, report)
		return true
	})
}

func (c *ctxFunc) assignCtx(s flowState, lhs ast.Expr, pv absVal) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	var v *types.Var
	if dv, ok := c.p.Pkg.Info.Defs[id].(*types.Var); ok {
		v = dv
	} else {
		v, _ = c.p.Pkg.Info.Uses[id].(*types.Var)
	}
	if v == nil || !isCtxType(v.Type()) {
		return
	}
	if pv == 0 {
		delete(s, v) // unknown origin: stay silent about it
		return
	}
	s[v] = pv
}

func (c *ctxFunc) checkCall(s flowState, call *ast.CallExpr, report bool) {
	if !report {
		return
	}
	// Rule 1: a fresh context passed where the incoming one belongs.
	for _, arg := range call.Args {
		if !isCtxType(c.p.TypeOf(arg)) {
			continue
		}
		if c.prov(s, arg) == cFresh {
			c.p.Reportf(arg.Pos(), "fresh context passed here severs the incoming ctx's trace, clock, and deadline; thread %s instead", c.params[0].Name())
		}
	}
	// Rule 2: calling M when the receiver offers MCtx.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := c.p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || strings.HasSuffix(fn.Name(), "Ctx") {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return // already takes a ctx under another spelling
		}
	}
	recvT := c.p.TypeOf(sel.X)
	if recvT == nil {
		return
	}
	ms := types.NewMethodSet(recvT)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() != fn.Name()+"Ctx" {
			continue
		}
		msig, _ := m.Type().(*types.Signature)
		if msig == nil {
			continue
		}
		for j := 0; j < msig.Params().Len(); j++ {
			if isCtxType(msig.Params().At(j).Type()) {
				c.p.Reportf(call.Pos(), "%s drops the incoming ctx; call %sCtx(%s, ...) to keep trace and deadline attached", fn.Name(), fn.Name(), c.params[0].Name())
				return
			}
		}
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Remote-invocation classification, shared by mutexacrossrpc and
// mortalref.  A call is a *remote seed* when it demonstrably leaves the
// process through the ORB:
//
//  1. a call to a function or method listed in remoteCalls, or
//  2. an exported method on a stub-shaped struct — one carrying an
//     exported field `Ep` that is either *orb.Endpoint or an interface
//     with an Invoke method (the per-package `Invoker` convention used
//     by names.Context, audit.Stub, ssc.Stub, core.Session, ...).
//
// mutexacrossrpc additionally closes the set over same-package callees:
// a function whose body contains a remote call is itself
// remote-performing, so `mu.Lock(); defer mu.Unlock(); rb.refLocked()`
// is caught even though the RPC is one call deeper.

// remoteCalls names the functions and methods that send a request, by
// package path below the module root: every orb.Endpoint method that does
// (one addressed to the endpoint itself short-circuits locally, which
// still runs foreign dispatch code), orb.Ping, which invokes through an
// orb.Invoker, and core.Rebinder's resolve-and-invoke methods.
var remoteCalls = map[string]bool{
	"/internal/orb.Endpoint.Invoke":     true,
	"/internal/orb.Endpoint.InvokeCtx":  true,
	"/internal/orb.Endpoint.InvokeInto": true,
	"/internal/orb.Endpoint.Ping":       true,
	// The node object's helpers (DESIGN.md §7).
	"/internal/orb.Endpoint.MetricsOf":    true,
	"/internal/orb.Endpoint.EventsOf":     true,
	"/internal/orb.Endpoint.EventsPageOf": true,
	"/internal/orb.Endpoint.HealthOf":     true,
	"/internal/orb.Endpoint.SlowOf":       true,
	"/internal/orb.Endpoint.ProfileOf":    true,
	"/internal/orb.Ping":                  true,
	"/internal/core.Rebinder.Invoke":      true,
	"/internal/core.Rebinder.InvokeCtx":   true,
	"/internal/core.Rebinder.InvokeInto":  true,
	"/internal/core.Rebinder.Do":          true,
}

// isRemoteSeed classifies one call.  desc names what was matched, for
// diagnostics.
func isRemoteSeed(p *Pass, call *ast.CallExpr) (desc string, ok bool) {
	fn, isFunc := calleeObject(p, call).(*types.Func)
	if !isFunc || fn.Pkg() == nil || !fn.Exported() {
		return "", false
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		n := namedFrom(recv.Type())
		if n == nil {
			return "", false
		}
		name = n.Obj().Name() + "." + name
	}
	if remoteCalls[strings.TrimPrefix(fn.Pkg().Path(), p.Pkg.ModPath)+"."+name] {
		return fn.Pkg().Name() + "." + name, true
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	n := namedFrom(p.TypeOf(sel.X))
	if n == nil {
		return "", false
	}
	st, isStruct := n.Underlying().(*types.Struct)
	if !isStruct {
		return "", false
	}
	orb := p.Pkg.ModPath + "/internal/orb"
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Ep" && (isNamed(f.Type(), orb, "Endpoint") || isInvokerIface(f.Type())) {
			return n.Obj().Name() + "." + fn.Name() + " (stub via Ep)", true
		}
	}
	return "", false
}

// isInvokerIface reports whether t is an interface exposing an Invoke
// method — the per-package `Invoker` stub-field convention.
func isInvokerIface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Invoke" {
			return true
		}
	}
	return false
}

// calleeObject resolves the function object a call targets, or nil for
// indirect calls (values, closures in variables).
func calleeObject(p *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// remotePerformers computes the fixpoint of same-package functions whose
// bodies (outside nested literals) contain a remote call.
func remotePerformers(p *Pass) map[types.Object]bool {
	type fn struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var fns []fn
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fns = append(fns, fn{obj: obj, body: fd.Body})
		}
	}
	performers := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if performers[f.obj] {
				continue
			}
			found := false
			inspectShallow(f.body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, seed := isRemoteSeed(p, call); seed {
					found = true
					return false
				}
				if obj := calleeObject(p, call); obj != nil && performers[obj] {
					found = true
					return false
				}
				return true
			})
			if found {
				performers[f.obj] = true
				changed = true
			}
		}
	}
	return performers
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// poolOwn enforces the DESIGN §9 buffer-ownership discipline with real
// path-sensitivity: a pooled value (wire.GetEncoder, the orb get*/put*
// pairs, and anything following that convention) must reach exactly one
// release on every path out of the acquiring function — or visibly hand
// ownership off (channel send, return, closure capture) — and must not be
// touched after it is released.  A second, flow-insensitive pass guards
// the aliases: slices returned by Decoder.BytesView, by a FrameReader's
// Next (and Begin and Body, the halves of it a split read calls on their
// own) or by ReadFrameInto alias the frame buffer and must not be stored
// into fields, globals, channels, or closures that outlive the frame.
//
// Acquire/release pairs are recognized structurally, not from a list: a
// package-level niladic-receiver function `getX`/`GetX` with exactly one
// result whose package also declares `putX`/`PutX` taking that result
// type is a pool pair.  That keeps the check aligned with the codebase's
// naming convention as ROADMAP items widen the pooled surface.
type poolOwn struct{}

func (poolOwn) Name() string { return "poolown" }
func (poolOwn) Doc() string {
	return "pooled values must reach exactly one Put on every path; frame-buffer aliases must not escape"
}

// Ownership lattice.  Absent = never acquired (bottom).
const (
	vLive     absVal = iota + 1 // acquired, not yet released
	vReleased                   // released (Put called)
	vEscaped                    // ownership handed off (send/return/capture)
	vMaybe                      // live on some path, done on another
)

func poolJoin(a, b absVal) absVal {
	if a == b {
		return a
	}
	// Released ⊔ Escaped: done either way; escaped is the weaker claim
	// about what we may still do with it.
	if (a == vReleased || a == vEscaped) && (b == vReleased || b == vEscaped) {
		return vEscaped
	}
	return vMaybe
}

// poolPair describes one recognized acquire site.
type poolAcq struct {
	pos token.Pos
	get string // display name of the acquire function
	put string // display name of the expected release
}

func (poolOwn) Run(p *Pass) {
	walkFuncs(p.Pkg, func(node ast.Node, body *ast.BlockStmt) {
		pf := &poolFunc{p: p, acquired: make(map[*types.Var]*poolAcq)}
		cfg := buildCFG(body)
		exit := runForward(cfg, &flowAnalysis{joinVal: poolJoin, transfer: pf.transfer})

		// Deferred calls run at exit, in registration order.
		for _, call := range cfg.deferred {
			v, acq := pf.releaseTarget(call)
			if v == nil {
				continue
			}
			switch exit[v] {
			case vReleased:
				p.Reportf(call.Pos(), "%s released twice: deferred %s runs after an explicit release", v.Name(), acq)
			case vEscaped:
				p.Reportf(call.Pos(), "%s released after its ownership was handed off", v.Name())
			default:
				exit[v] = vReleased
			}
		}

		// Anything still live when the function returns leaks back to the
		// heap instead of the pool.
		var leaks []*types.Var
		for v := range pf.acquired {
			if st := exit[v]; st == vLive || st == vMaybe {
				leaks = append(leaks, v)
			}
		}
		sort.Slice(leaks, func(i, j int) bool { return pf.acquired[leaks[i]].pos < pf.acquired[leaks[j]].pos })
		for _, v := range leaks {
			acq := pf.acquired[v]
			if exit[v] == vLive {
				p.Reportf(acq.pos, "%s from %s is never released: no %s (or handoff) on any path to return", v.Name(), acq.get, acq.put)
			} else {
				p.Reportf(acq.pos, "%s from %s is not released on every path to return", v.Name(), acq.get)
			}
		}

		poolAliasFunc(p, node, body)
	})
}

// poolFunc is the per-function ownership analysis.
type poolFunc struct {
	p        *Pass
	acquired map[*types.Var]*poolAcq
}

// acquirePair reports whether call is a pool acquire, returning the
// display names of the pair.
func (f *poolFunc) acquirePair(call *ast.CallExpr) (get, put string, ok bool) {
	fn, _ := calleeObject(f.p, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil || sig.Results().Len() != 1 {
		return "", "", false
	}
	name := fn.Name()
	var putName string
	switch {
	case len(name) > 3 && strings.HasPrefix(name, "get"):
		putName = "put" + name[3:]
	case len(name) > 3 && strings.HasPrefix(name, "Get"):
		putName = "Put" + name[3:]
	default:
		return "", "", false
	}
	rel, _ := fn.Pkg().Scope().Lookup(putName).(*types.Func)
	if rel == nil {
		return "", "", false
	}
	rsig, _ := rel.Type().(*types.Signature)
	if rsig == nil || rsig.Recv() != nil || rsig.Params().Len() < 1 {
		return "", "", false
	}
	if !types.Identical(rsig.Params().At(0).Type(), sig.Results().At(0).Type()) {
		return "", "", false
	}
	return name, putName, true
}

// releaseCall reports whether call is a pool release, returning its first
// argument and display name.
func (f *poolFunc) releaseCall(call *ast.CallExpr) (arg ast.Expr, name string, ok bool) {
	fn, _ := calleeObject(f.p, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || len(call.Args) < 1 {
		return nil, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return nil, "", false
	}
	name = fn.Name()
	var getName string
	switch {
	case len(name) > 3 && strings.HasPrefix(name, "put"):
		getName = "get" + name[3:]
	case len(name) > 3 && strings.HasPrefix(name, "Put"):
		getName = "Get" + name[3:]
	default:
		return nil, "", false
	}
	if _, isGet := fn.Pkg().Scope().Lookup(getName).(*types.Func); !isGet {
		return nil, "", false
	}
	return call.Args[0], name, true
}

// releaseTarget resolves a release call to the tracked variable it
// releases (nil when the argument is not a tracked local).
func (f *poolFunc) releaseTarget(call *ast.CallExpr) (*types.Var, string) {
	arg, name, ok := f.releaseCall(call)
	if !ok {
		return nil, ""
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	v, _ := f.p.Pkg.Info.Uses[id].(*types.Var)
	if v == nil || f.acquired[v] == nil {
		return nil, ""
	}
	return v, name
}

// lhsVar resolves an assignment LHS ident to its variable (Defs for :=,
// Uses for =).
func (f *poolFunc) lhsVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := f.p.Pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := f.p.Pkg.Info.Uses[id].(*types.Var)
	return v
}

func (f *poolFunc) transfer(s flowState, n ast.Node, report bool) {
	claimed := make(map[*ast.Ident]bool)

	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				f.assignOne(s, n, lhs, n.Rhs[i], claimed, report)
			}
		} else {
			// Multi-value assignment from one call: pool acquires have a
			// single result, so every LHS is a plain overwrite.
			for _, lhs := range n.Lhs {
				f.killLHS(s, n, lhs, claimed, report)
			}
		}

	case *ast.SendStmt:
		// Sending a pooled value is the sanctioned ownership handoff
		// (seat holder → waiter, reader → worker).
		if id, ok := n.Value.(*ast.Ident); ok {
			if v, _ := f.p.Pkg.Info.Uses[id].(*types.Var); v != nil && f.acquired[v] != nil {
				f.useCheck(s, id, report)
				s[v] = vEscaped
				claimed[id] = true
			}
		}

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if id, ok := res.(*ast.Ident); ok {
				if v, _ := f.p.Pkg.Info.Uses[id].(*types.Var); v != nil && f.acquired[v] != nil {
					f.useCheck(s, id, report)
					s[v] = vEscaped
					claimed[id] = true
				}
			}
		}

	case *ast.DeferStmt:
		// A deferred release runs at exit and is replayed there against
		// the exit state; registering it is not a use and must not change
		// the state now.  Only literals nested in its arguments capture.
		if _, _, ok := f.releaseCall(n.Call); ok {
			ast.Inspect(n.Call, func(c ast.Node) bool {
				if lit, ok := c.(*ast.FuncLit); ok {
					f.scanCaptures(s, lit, report)
					return false
				}
				return true
			})
			return
		}
	}

	f.scan(s, n, claimed, report)
}

// assignOne handles one lhs := rhs pair.
func (f *poolFunc) assignOne(s flowState, n *ast.AssignStmt, lhs, rhs ast.Expr, claimed map[*ast.Ident]bool, report bool) {
	if call, ok := rhs.(*ast.CallExpr); ok {
		if get, put, isAcq := f.acquirePair(call); isAcq {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent {
				return // store into a field/index: out of scope, silent
			}
			if id.Name == "_" {
				if report {
					f.p.Reportf(call.Pos(), "pooled value from %s is discarded; it can never reach %s", get, put)
				}
				return
			}
			if v := f.lhsVar(id); v != nil {
				if st := s[v]; (st == vLive || st == vMaybe) && report {
					f.p.Reportf(n.Pos(), "%s overwritten while holding a live pooled value (previous %s result never released)", v.Name(), f.acquired[v].get)
				}
				s[v] = vLive
				if f.acquired[v] == nil {
					f.acquired[v] = &poolAcq{pos: call.Pos(), get: get, put: put}
				}
				claimed[id] = true
			}
			return
		}
	}

	// Moving a tracked value between locals: transfer the state so the
	// release can be verified under either name, without double-counting.
	if rid, ok := rhs.(*ast.Ident); ok {
		if rv, _ := f.p.Pkg.Info.Uses[rid].(*types.Var); rv != nil && f.acquired[rv] != nil {
			f.useCheck(s, rid, report)
			claimed[rid] = true
			if lv := f.lhsVar(lhs); lv != nil {
				if _, isIdent := lhs.(*ast.Ident); isIdent {
					if st, ok := s[rv]; ok {
						s[lv] = st
						if f.acquired[lv] == nil {
							f.acquired[lv] = f.acquired[rv]
						}
						delete(s, rv)
					}
					if id, ok := lhs.(*ast.Ident); ok {
						claimed[id] = true
					}
					return
				}
			}
			// Stored into a field or index (cc.pending[id] = w): that is
			// registration, not handoff — the acquiring function is still
			// the one that must release, so tracking continues.
			return
		}
	}

	f.killLHS(s, n, lhs, claimed, report)
}

// killLHS handles a plain overwrite of lhs by an untracked value.
func (f *poolFunc) killLHS(s flowState, n ast.Node, lhs ast.Expr, claimed map[*ast.Ident]bool, report bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	v := f.lhsVar(id)
	if v == nil || f.acquired[v] == nil {
		return
	}
	if st := s[v]; (st == vLive || st == vMaybe) && report {
		f.p.Reportf(n.Pos(), "%s overwritten while holding a live pooled value (previous %s result never released)", v.Name(), f.acquired[v].get)
	}
	delete(s, v)
	claimed[id] = true
}

// scan walks the remaining expressions of n: releases flip state,
// discarded acquires and uses of dead values report, closure captures
// hand ownership off.
func (f *poolFunc) scan(s flowState, n ast.Node, claimed map[*ast.Ident]bool, report bool) {
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if get, put, isAcq := f.acquirePair(call); isAcq && report {
				f.p.Reportf(call.Pos(), "pooled value from %s is discarded; it can never reach %s", get, put)
			}
		}
	}
	// Function literals first: flowInspect skips their bodies outright, so
	// captures must be collected with a dedicated walk.
	ast.Inspect(n, func(c ast.Node) bool {
		if lit, ok := c.(*ast.FuncLit); ok {
			f.scanCaptures(s, lit, report)
			return false
		}
		return true
	})
	flowInspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CallExpr:
			arg, name, ok := f.releaseCall(c)
			if !ok {
				return true
			}
			id, isIdent := arg.(*ast.Ident)
			if !isIdent {
				return true
			}
			v, _ := f.p.Pkg.Info.Uses[id].(*types.Var)
			if v == nil || f.acquired[v] == nil {
				return true
			}
			claimed[id] = true
			if report {
				switch s[v] {
				case vReleased:
					f.p.Reportf(c.Pos(), "%s released twice: %s already called on every path here", v.Name(), name)
				case vEscaped:
					f.p.Reportf(c.Pos(), "%s released after its ownership was handed off", v.Name())
				case vMaybe:
					f.p.Reportf(c.Pos(), "%s may already be released on some path reaching this %s", v.Name(), name)
				}
			}
			s[v] = vReleased
			return true
		case *ast.Ident:
			if claimed[c] {
				return true
			}
			f.useCheck(s, c, report)
			return true
		}
		return true
	})
}

// useCheck reports a touch of a value that is no longer (certainly) live.
func (f *poolFunc) useCheck(s flowState, id *ast.Ident, report bool) {
	v, _ := f.p.Pkg.Info.Uses[id].(*types.Var)
	if v == nil || f.acquired[v] == nil {
		return
	}
	if !report {
		return
	}
	switch s[v] {
	case vReleased:
		f.p.Reportf(id.Pos(), "%s used after release: %s already returned it to the pool", v.Name(), f.acquired[v].put)
	case vEscaped:
		f.p.Reportf(id.Pos(), "%s used after its ownership was handed off", v.Name())
	case vMaybe:
		f.p.Reportf(id.Pos(), "%s may be used after release (released on another path)", v.Name())
	}
}

// ---------------------------------------------------------------------
// Alias pass: BytesView / frame-read results alias the frame buffer.
// ---------------------------------------------------------------------

// aliasInfo describes one view of a frame buffer within a function.
type aliasInfo struct {
	src string // "Decoder.BytesView", "FrameReader.Next" (Begin, Body) or "wire.ReadFrameInto"
	// sanctioned are exprKey targets this alias may be stored to: the
	// frame-read recycle pattern stores the returned frame back into the
	// buffer slot it was read into (rf.buf = frame).
	sanctioned map[string]bool
}

// poolAliasFunc runs the flow-insensitive alias-escape pass over one
// function body.  Stores of a view into a field, index, global, channel,
// return value, or closure extend the alias past the frame's lifetime;
// the two sanctioned shapes are the frame-read buffer recycle and
// UnmarshalWire storing views into its own receiver (the decoded message
// owns the view until the next Reset — DESIGN §9).
func poolAliasFunc(p *Pass, node ast.Node, body *ast.BlockStmt) {
	wirePath := p.Pkg.ModPath + "/internal/wire"

	// Receiver exemption for UnmarshalWire methods.
	var recv *types.Var
	inUnmarshal := false
	if fd, ok := node.(*ast.FuncDecl); ok && fd.Name.Name == "UnmarshalWire" && fd.Recv != nil {
		inUnmarshal = true
		if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			recv, _ = p.Pkg.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
		}
	}

	isBytesView := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "BytesView" {
			return false
		}
		return isNamed(p.TypeOf(sel.X), wirePath, "Decoder")
	}
	// frameRead recognizes the calls that read a frame, or a part of one,
	// into storage an argument lends and return a view of it first among
	// their results: fr.Next(buf), fr.Begin(buf), fr.Body(have, n) on a
	// wire.FrameReader and wire.ReadFrameInto(r, buf).  lent is the index of
	// the lending argument.
	frameRead := func(call *ast.CallExpr) (src string, lent int, ok bool) {
		fn, _ := calleeObject(p, call).(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != wirePath {
			return "", 0, false
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			switch fn.Name() {
			case "Next", "Begin", "Body":
				return "FrameReader." + fn.Name(), 0, isNamed(recv.Type(), wirePath, "FrameReader")
			}
			return "", 0, false
		}
		return "wire.ReadFrameInto", 1, fn.Name() == "ReadFrameInto"
	}

	aliases := make(map[*types.Var]*aliasInfo)
	aliasOf := func(e ast.Expr) *aliasInfo {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := p.Pkg.Info.Uses[id].(*types.Var)
		if v == nil {
			return nil
		}
		return aliases[v]
	}
	defVar := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := p.Pkg.Info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := p.Pkg.Info.Uses[id].(*types.Var)
		return v
	}
	// receiverStore reports whether lhs is a field of the UnmarshalWire
	// receiver (r.Body = d.BytesView()).
	receiverStore := func(lhs ast.Expr) bool {
		if !inUnmarshal || recv == nil {
			return false
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == recv
	}
	// checkStore flags a store of an alias (src names its origin) into a
	// location that outlives the frame.
	checkStore := func(pos token.Pos, lhs ast.Expr, info *aliasInfo) {
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			if v, _ := p.Pkg.Info.Uses[l].(*types.Var); v != nil && v.Parent() == p.Pkg.Types.Scope() {
				p.Reportf(pos, "%s alias stored to package variable %s outlives the frame buffer", info.src, l.Name)
			}
			return // plain local copy: still inside the frame's lifetime
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			key := exprKey(l)
			if info.sanctioned[key] || receiverStore(lhs) {
				return
			}
			p.Reportf(pos, "%s alias stored to %s escapes the frame buffer's lifetime (copy it instead)", info.src, key)
		}
	}

	// One source-order pass: collect alias definitions, propagate through
	// local copies, and flag escaping stores/sends/returns/captures.
	// (Manual walk: inspectShallow would hide the FuncLit nodes whose
	// captures we must flag.)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// frame, err := fr.Next(x.buf); have, n, err := fr.Begin(x.buf)
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Rhs) == 1 && len(n.Lhs) >= 2 {
				if src, lent, ok := frameRead(call); ok {
					if v := defVar(n.Lhs[0]); v != nil {
						info := &aliasInfo{src: src, sanctioned: make(map[string]bool)}
						if len(call.Args) > lent {
							if key := exprKey(call.Args[lent]); key != "" {
								info.sanctioned[key] = true
							}
						}
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							info.sanctioned[exprKey(id)] = true
						}
						aliases[v] = info
					}
					return true
				}
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				lhs := n.Lhs[i]
				if call, ok := rhs.(*ast.CallExpr); ok && isBytesView(call) {
					info := &aliasInfo{src: "Decoder.BytesView", sanctioned: make(map[string]bool)}
					// Only a function-local ident is a benign copy; a
					// package-level ident is an escaping store.
					if v := defVar(lhs); v != nil && v.Parent() != p.Pkg.Types.Scope() {
						if _, isIdent := lhs.(*ast.Ident); isIdent {
							aliases[v] = info
							continue
						}
					}
					checkStore(n.Pos(), lhs, info)
					continue
				}
				if info := aliasOf(rhs); info != nil {
					if v := defVar(lhs); v != nil && v.Parent() != p.Pkg.Types.Scope() {
						if _, isIdent := lhs.(*ast.Ident); isIdent {
							aliases[v] = info // propagate through local copies
							continue
						}
					}
					checkStore(n.Pos(), lhs, info)
				}
			}
		case *ast.SendStmt:
			if info := aliasOf(n.Value); info != nil {
				p.Reportf(n.Pos(), "%s alias sent on a channel escapes the frame buffer's lifetime (copy it instead)", info.src)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if info := aliasOf(res); info != nil {
					p.Reportf(res.Pos(), "%s alias returned to the caller outlives the frame buffer (copy it instead)", info.src)
				}
			}
		case *ast.FuncLit:
			// The literal's own body gets its own poolAliasFunc visit via
			// walkFuncs; here we only care that it captures our aliases.
			ast.Inspect(n.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if v, _ := p.Pkg.Info.Uses[id].(*types.Var); v != nil && aliases[v] != nil {
						p.Reportf(id.Pos(), "%s alias captured by a closure may outlive the frame buffer (copy it instead)", aliases[v].src)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// scanCaptures marks tracked values captured by a function literal (or
// referenced in a deferred/raw call node) as handed off: the closure runs
// on its own schedule and owns what it captured.
func (f *poolFunc) scanCaptures(s flowState, n ast.Node, report bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if v, _ := f.p.Pkg.Info.Uses[id].(*types.Var); v != nil && f.acquired[v] != nil {
				f.useCheck(s, id, report)
				s[v] = vEscaped
			}
		}
		return true
	})
}

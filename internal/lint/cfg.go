package lint

import "go/ast"

// Statement-level control-flow graph construction, the substrate of the
// dataflow analyzers (poolown, ctxflow).  The existing
// single-expression checks get away with source-order linearization; an
// ownership or provenance property ("released on *every* path", "derived
// from the incoming ctx on *this* path") needs real branch and loop
// structure, so this file builds one — directly from go/ast, with the same
// no-dependency constraint as the rest of the framework.
//
// The graph is deliberately modest:
//
//   - a block's nodes are the statements and condition expressions it
//     evaluates, in order; compound statements contribute only their
//     evaluated parts (an if contributes its init and condition — the
//     branches are separate blocks),
//   - nested function literals are opaque: their bodies run on their own
//     schedule, so they are not wired into the enclosing graph (analyzers
//     that care about captures inspect them explicitly),
//   - `goto` is approximated as an edge to the exit block (none of the
//     guarded invariants survive a goto anyway, and the repository has
//     none),
//   - panics and runtime aborts are ignored: every analysis here reasons
//     about the orderly paths.
//
// Deferred calls are collected separately (funcCFG.deferred, in
// registration order): they run at function exit, so analyzers replay
// them against the exit state rather than at the registration site.

// block is one straight-line run of evaluated nodes.  A node is an
// ast.Stmt for plain statements, or an ast.Expr for the condition/tag of a
// compound statement; *ast.RangeStmt and *ast.DeferStmt appear whole and
// flowInspect knows which parts of them this block evaluates.
type block struct {
	nodes []ast.Node
	succs []*block
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry *block
	// exit is a synthetic empty block every return path reaches.
	exit *block
	// blocks lists every block in construction order (entry first);
	// analyzers iterate it for reporting passes.
	blocks []*block
	// deferred lists the calls registered by defer statements anywhere in
	// the body, in registration order.
	deferred []*ast.CallExpr
}

type loopFrame struct {
	label      string
	breakTo    *block
	continueTo *block // nil for switch/select frames (break only)
}

type cfgBuilder struct {
	cfg   *funcCFG
	loops []loopFrame
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}}
	b.cfg.exit = &block{}
	entry := b.newBlock()
	b.cfg.entry = entry
	if last := b.stmtList(entry, body.List); last != nil {
		b.edge(last, b.cfg.exit)
	}
	b.cfg.blocks = append(b.cfg.blocks, b.cfg.exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	from.succs = append(from.succs, to)
}

// stmtList threads a statement sequence through cur, returning the block
// control falls out of (nil when every path terminated).
func (b *cfgBuilder) stmtList(cur *block, list []ast.Stmt) *block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/branch; give it its own island
			// so its nodes are still visited by reporting passes (with
			// bottom in-state).
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// stmt wires one statement into the graph starting at cur and returns the
// fall-through block (nil if control never falls through).  label is the
// pending label for an immediately following loop/switch.
func (b *cfgBuilder) stmt(cur *block, s ast.Stmt, label string) *block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		return b.stmt(cur, s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		if out := b.stmtList(then, s.Body.List); out != nil {
			b.edge(out, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			if out := b.stmt(els, s.Else, ""); out != nil {
				b.edge(out, after)
			}
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		after := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			b.edge(head, after) // condition may fail immediately
		}
		body := b.newBlock()
		b.edge(head, body)
		post := b.newBlock()
		if s.Post != nil {
			post.nodes = append(post.nodes, s.Post)
		}
		b.edge(post, head)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: post})
		if out := b.stmtList(body, s.Body.List); out != nil {
			b.edge(out, post)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		after := b.newBlock()
		b.edge(cur, head)
		head.nodes = append(head.nodes, s) // flowInspect visits Key/Value/X only
		b.edge(head, after)                // empty collection
		body := b.newBlock()
		b.edge(head, body)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: head})
		if out := b.stmtList(body, s.Body.List); out != nil {
			b.edge(out, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchBody(cur, s.Body.List, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchBody(cur, s.Body.List, label)

	case *ast.SelectStmt:
		after := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after})
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(cur, cb)
			if cc.Comm != nil {
				cb.nodes = append(cb.nodes, cc.Comm)
			}
			if out := b.stmtList(cb, cc.Body); out != nil {
				b.edge(out, after)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.cfg.exit)
		return nil

	case *ast.BranchStmt:
		cur.nodes = append(cur.nodes, s)
		switch s.Tok.String() {
		case "break":
			if t := b.findFrame(s.Label); t != nil {
				b.edge(cur, t.breakTo)
			} else {
				b.edge(cur, b.cfg.exit)
			}
		case "continue":
			if t := b.findLoopFrame(s.Label); t != nil {
				b.edge(cur, t.continueTo)
			} else {
				b.edge(cur, b.cfg.exit)
			}
		default: // goto (approximate), stray fallthrough
			b.edge(cur, b.cfg.exit)
		}
		return nil

	case *ast.DeferStmt:
		cur.nodes = append(cur.nodes, s)
		b.cfg.deferred = append(b.cfg.deferred, s.Call)
		return cur

	default:
		// Plain statements: assignments, expressions, declarations, sends,
		// go statements, inc/dec, empty.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchBody builds the clause blocks of a (type) switch whose head is cur.
func (b *cfgBuilder) switchBody(cur *block, clauses []ast.Stmt, label string) *block {
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, breakTo: after})
	hasDefault := false
	entries := make([]*block, len(clauses))
	for i := range clauses {
		entries[i] = b.newBlock()
	}
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(cur, entries[i])
		if out := b.clauseBody(entries[i], cc.Body, entries, i); out != nil {
			b.edge(out, after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		b.edge(cur, after)
	}
	return after
}

// clauseBody is stmtList for a case-clause body: a trailing fallthrough
// transfers to the next clause's entry instead of exiting the switch.
func (b *cfgBuilder) clauseBody(cur *block, list []ast.Stmt, entries []*block, idx int) *block {
	for i, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			if cur == nil {
				cur = b.newBlock()
			}
			if idx+1 < len(entries) {
				b.edge(cur, entries[idx+1])
			}
			// Anything after a fallthrough is unreachable.
			if i+1 < len(list) {
				b.stmtList(nil, list[i+1:])
			}
			return nil
		}
		if cur == nil {
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// findFrame resolves a break target (loops, switches, selects).
func (b *cfgBuilder) findFrame(label *ast.Ident) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// findLoopFrame resolves a continue target (loops only).
func (b *cfgBuilder) findLoopFrame(label *ast.Ident) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// flowInspect visits the parts of a flow node this block evaluates,
// skipping nested statement bodies and function-literal bodies.  It is the
// walker every transfer function uses.
func flowInspect(n ast.Node, fn func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if n.Key != nil {
			inspectShallow(n.Key, fn)
		}
		if n.Value != nil {
			inspectShallow(n.Value, fn)
		}
		inspectShallow(n.X, fn)
	default:
		inspectShallow(n, fn)
	}
}

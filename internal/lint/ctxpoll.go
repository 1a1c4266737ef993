package lint

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the PR 5 cancellation contract in internal/engine and
// internal/storage: any loop that can absorb unbounded input — calling
// NextBatch on a concrete operator or Next on a spill-run reader — must
// poll cancellation on every iteration, or a cancelled query keeps
// scanning, merging, or replaying until the loop drains naturally.
// NextBatch through the batchIter *interface* is exempt: every operator —
// in the driver's tree (prepare) and in each worker chain
// (instantiateChain) — runs in the operator envelope, which polls once per
// batch, so the interface call itself is the poll.
// A poll is a call to a method named cancelled/canceled, ctx.Err(),
// receiving from ctx.Done(), or a call to a local closure or
// package-level function whose body polls (the parallel workers'
// checkCancel pattern) — resolved through the dataflow core's def-use
// bindings.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "batch-absorbing loops must poll cancellation every iteration or run behind the operator envelope",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	if !inScope(pass, "internal/engine", "internal/storage") {
		return nil
	}
	pollers := packagePollers(pass)
	for _, f := range pass.Files {
		bindings := funcLitBindings(pass.Info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch x := n.(type) {
			case *ast.ForStmt:
				body = x.Body
			case *ast.RangeStmt:
				body = x.Body
			default:
				return true
			}
			if absorb := absorbCallIn(pass, body); absorb != "" && !pollsIn(pass, body, bindings, pollers) {
				pass.Reportf(n.Pos(), "loop absorbs batches via %s without polling cancellation; call ctx.cancelled() each iteration or absorb through the operator envelope", absorb)
			}
			return true
		})
	}
	return nil
}

// absorbCallIn finds an unbounded-absorption call inside the loop body:
// NextBatch() (*vector.Batch, error) on a concrete (non-interface)
// receiver, or Next() ([]byte, error) — the spill-run reader shape. It
// returns a short description of the first such call, or "".
func absorbCallIn(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok {
			return true
		}
		sig, ok := tv.Type.(*types.Signature)
		if !ok || sig.Results().Len() != 2 || !isErrorType(sig.Results().At(1).Type()) {
			return true
		}
		switch sel.Sel.Name {
		case "NextBatch":
			if !isBatchType(sig.Results().At(0).Type()) {
				return true
			}
			// Interface dispatch means the operator envelope already polls.
			if rtv, ok := pass.Info.Types[sel.X]; ok && rtv.Type != nil {
				if _, isIface := deref(rtv.Type).Underlying().(*types.Interface); isIface {
					return true
				}
			}
			found = exprString(sel.X) + ".NextBatch"
		case "Next":
			res0, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
			if !ok || !types.Identical(res0.Elem(), types.Typ[types.Byte]) {
				return true
			}
			found = exprString(sel.X) + ".Next"
		}
		return true
	})
	return found
}

// pollsIn reports whether the loop body reaches a cancellation poll:
// directly, through a bound closure, or through a package function that
// polls.
func pollsIn(pass *Pass, body *ast.BlockStmt, bindings map[types.Object]*ast.FuncLit, pollers map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isDirectPoll(pass, call) {
			found = true
			return false
		}
		// A call through a local closure binding or a package function whose
		// body polls counts: the parallel workers' checkCancel pattern.
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj := pass.Info.ObjectOf(fun)
			if obj == nil {
				return true
			}
			if pollers[obj] {
				found = true
				return false
			}
			if lit, ok := bindings[obj]; ok && bodyPollsDirect(pass, lit.Body) {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if obj := pass.Info.Uses[fun.Sel]; obj != nil && pollers[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isDirectPoll reports whether the call is itself a cancellation poll:
// x.cancelled() / x.canceled(), ctx.Err(), or ctx.Done() (Done only
// appears in receive positions, so the call is the poll).
func isDirectPoll(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	switch sel.Sel.Name {
	case "cancelled", "canceled":
		return true
	case "Err", "Done":
		tv, ok := pass.Info.Types[sel.X]
		return ok && namedIn(tv.Type, "context", "Context")
	}
	return false
}

// bodyPollsDirect reports whether a function body contains a direct poll.
func bodyPollsDirect(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isDirectPoll(pass, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// packagePollers computes, to a fixpoint across the pass's files, the set
// of package-level functions and methods whose bodies poll cancellation —
// directly or by calling another poller.
func packagePollers(pass *Pass) map[types.Object]bool {
	type decl struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var decls []decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls = append(decls, decl{obj: obj, body: fd.Body})
			}
		}
	}
	pollers := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if pollers[d.obj] {
				continue
			}
			hit := false
			ast.Inspect(d.body, func(n ast.Node) bool {
				if hit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isDirectPoll(pass, call) {
					hit = true
					return false
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if obj := pass.Info.ObjectOf(fun); obj != nil && pollers[obj] {
						hit = true
						return false
					}
				case *ast.SelectorExpr:
					if obj := pass.Info.Uses[fun.Sel]; obj != nil && pollers[obj] {
						hit = true
						return false
					}
				}
				return true
			})
			if hit {
				pollers[d.obj] = true
				changed = true
			}
		}
	}
	return pollers
}

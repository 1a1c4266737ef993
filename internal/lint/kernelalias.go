package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KernelAlias enforces the batch-lifetime contract (DESIGN.md §6): what a
// producer hands out is borrowed until the producer's next call. Two
// producers exist. An expression kernel — anything of the kernel shape,
// func(*vector.Batch, ...) ([]T, error), in practice exprDAG.eval — returns
// registers it overwrites on its next evaluation. A streaming operator's
// NextBatch returns a batch whose header, selection and vectors it recycles
// on its next NextBatch.
//
// Holding a borrowed value in a single slot (a local, a field used as the
// current-batch cursor) or returning it onward is how operators stream, and
// passes. What the contract forbids is accumulating borrowed values where
// they outlive the producer's next call without detaching them first:
//
//   - appending one to a slice that is a field, a captured variable, or a
//     local declared outside the loop that borrowed it;
//   - storing one into an element of a slice or map declared outside the
//     loop that borrowed it (a field or captured container included).
//
// Batch.Detach, append(dst, vals...) and copy detach; element reads of a
// vector (vals[i]) yield values, not the borrowed storage. The analysis is
// intraprocedural: a borrowed value passed to a call is the callee's
// problem.
var KernelAlias = &Analyzer{
	Name: "kernelalias",
	Doc:  "registers and streamed batches must not be accumulated past the producer's next call without Detach",
	Run:  runKernelAlias,
}

func runKernelAlias(pass *Pass) error {
	for _, f := range pass.Files {
		for _, unit := range funcUnits(f) {
			w := &aliasWalker{pass: pass, body: unit.body, taint: map[types.Object]borrow{}}
			w.walkStmts(unit.body.List)
		}
	}
	return nil
}

// borrow marks a value as borrowed and remembers the innermost loop body
// enclosing the producer call (nil when the call is not in a loop): one
// iteration of that loop is how long the value is good for.
type borrow struct {
	ok   bool
	loop *ast.BlockStmt
}

type aliasWalker struct {
	pass  *Pass
	body  *ast.BlockStmt
	taint map[types.Object]borrow
	loops []*ast.BlockStmt // enclosing loop bodies, innermost last
}

func (w *aliasWalker) here() borrow {
	if len(w.loops) == 0 {
		return borrow{ok: true}
	}
	return borrow{ok: true, loop: w.loops[len(w.loops)-1]}
}

// isProducerCall reports whether the call borrows its first result out: a
// kernel evaluation or a NextBatch.
func (w *aliasWalker) isProducerCall(call *ast.CallExpr) bool {
	tv, ok := w.pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	if isKernelSig(tv.Type) {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NextBatch" || len(call.Args) != 0 {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return ok && sig.Results().Len() == 2 && isBatchType(sig.Results().At(0).Type())
}

// borrowed reports whether evaluating e can yield (or contain) borrowed
// storage.
func (w *aliasWalker) borrowed(e ast.Expr) borrow {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := w.pass.Info.ObjectOf(x); obj != nil {
			return w.taint[obj]
		}
	case *ast.CallExpr:
		if w.isProducerCall(x) {
			return w.here()
		}
		// append(dst, v) keeps v as an element of dst; with the ellipsis the
		// elements are copied out, which detaches.
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			if obj := w.pass.Info.ObjectOf(id); obj == nil || obj.Parent() == types.Universe {
				if b := w.borrowed(x.Args[0]); b.ok {
					return b
				}
				if x.Ellipsis == token.NoPos {
					for _, a := range x.Args[1:] {
						if b := w.borrowed(a); b.ok {
							return b
						}
					}
				}
			}
		}
		// Any other call — Detach above all — hands back something of its own.
	case *ast.ParenExpr:
		return w.borrowed(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.borrowed(x.X)
		}
	case *ast.StarExpr:
		return w.borrowed(x.X)
	case *ast.SliceExpr:
		return w.borrowed(x.X) // reslicing shares the backing array
	case *ast.SelectorExpr:
		return w.borrowed(x.X) // b.Cols, b.Sel of a borrowed batch
	case *ast.IndexExpr:
		// An element of a register file or a column list is itself a vector;
		// an element of a vector is a value.
		if tv, ok := w.pass.Info.Types[x]; ok && tv.Type != nil {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
				return w.borrowed(x.X)
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if b := w.borrowed(v); b.ok {
				return b
			}
		}
	}
	return borrow{}
}

// outlives reports whether the variable or field e names survives one
// iteration of loop: a field, a captured or package-level variable, or a
// local declared outside the loop body. With no loop, locals do not.
func (w *aliasWalker) outlives(e ast.Expr, loop *ast.BlockStmt) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return w.outlives(x.X, loop)
	case *ast.Ident:
		obj, isVar := w.pass.Info.ObjectOf(x).(*types.Var)
		if !isVar {
			return false
		}
		if !declaredWithin(obj, w.body) {
			return true
		}
		return loop != nil && !declaredWithin(obj, loop)
	}
	return false
}

func (w *aliasWalker) setTaint(l ast.Expr, b borrow) {
	id, ok := l.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if b.ok {
		w.taint[obj] = b
	} else {
		delete(w.taint, obj)
	}
}

func (w *aliasWalker) assign(lhs, rhs []ast.Expr) {
	// Tuple form vals, err := d.eval(b): only the first result is borrowed.
	if len(rhs) == 1 && len(lhs) > 1 {
		b := borrow{}
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && w.isProducerCall(call) {
			b = w.here()
		}
		w.store(lhs[0], rhs[0], b)
		for _, l := range lhs[1:] {
			w.setTaint(l, borrow{})
		}
		return
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		w.store(lhs[i], rhs[i], w.borrowed(rhs[i]))
	}
}

// store applies l <- r where r is borrowed per b, reporting the two
// accumulation forms.
func (w *aliasWalker) store(l, r ast.Expr, b borrow) {
	if !b.ok {
		w.setTaint(l, b)
		return
	}
	if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" && w.outlives(l, b.loop) {
			w.pass.Reportf(l.Pos(), "borrowed register or batch appended to %s, which outlives the producer's next call; Detach (or copy) it first", exprString(l))
			return
		}
	}
	if x, ok := l.(*ast.IndexExpr); ok {
		if b.loop != nil && w.outlives(x.X, b.loop) {
			w.pass.Reportf(l.Pos(), "borrowed register or batch stored into %s, which outlives the loop that borrowed it; Detach (or copy) it first", exprString(x.X))
			return
		}
		w.setTaint(ast.Unparen(x.X), b) // the local container now holds it
		return
	}
	w.setTaint(l, b)
}

func (w *aliasWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *aliasWalker) walkLoop(body *ast.BlockStmt) {
	w.loops = append(w.loops, body)
	w.walkStmts(body.List)
	w.loops = w.loops[:len(w.loops)-1]
}

func (w *aliasWalker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		w.assign(x.Lhs, x.Rhs)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.assign(lhs, vs.Values)
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkStmts(x.Body.List)
		if x.Else != nil {
			w.walkStmt(x.Else)
		}
	case *ast.BlockStmt:
		w.walkStmts(x.List)
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkLoop(x.Body)
		if x.Post != nil {
			w.walkStmt(x.Post)
		}
	case *ast.RangeStmt:
		w.walkLoop(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkCases(x.Body)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkCases(x.Body)
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm)
				}
				w.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt)
	}
}

func (w *aliasWalker) walkCases(body *ast.BlockStmt) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.walkStmts(cc.Body)
		}
	}
}

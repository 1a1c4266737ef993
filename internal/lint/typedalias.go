package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TypedAlias guards the zero-copy contract of typed vectors: a
// vector.TypedCol a batch carries is a view over storage someone else owns —
// Slice never copies and the raw accessors (Ints, Floats, Strs, Dict, Codes,
// Bools) hand out the backing slices themselves. The storage is either a
// chunk's immutable arrays or an operator's register (an expression result,
// a FLATTEN column), which the operator refills on its next call. A view (or
// a backing slice obtained from one) must not outlive what produced it:
// storing it into a struct field, returning it, or capturing it in a
// closure that escapes pins a chunk in memory and reads stale storage once
// the chunk is compacted or evicted, or once the register is refilled.
// Materialize and ValueAt are the sanctioned escapes (they build owned
// variants); placing views in a vector.Batch is the sanctioned carrier
// (batches are the unit whose lifetime the executor already reasons about,
// and Batch.Detach copies registers where it shares chunk views). The
// vector package itself owns the representation and is exempt;
// constructors (NewInt64Col, ...) produce owned columns and start clean, so
// storage chunk building passes, and so does an operator's own register.
//
// Runs on the dataflow core: views flow through assignments, appends,
// slices and view calls; escapes are reported where the value leaves the
// function.
var TypedAlias = &Analyzer{
	Name: "typedalias",
	Doc:  "TypedCol views and their backing slices must not outlive their producer; Materialize is the escape hatch",
	Run:  runTypedAlias,
}

// typedViewMethods return another view of the same chunk storage when
// invoked on a view.
var typedViewMethods = map[string]bool{
	"Slice": true, "Ints": true, "Floats": true, "Bools": true,
	"Strs": true, "Dict": true, "Codes": true,
}

// isTypedColType reports whether t is *vector.TypedCol (or a slice of it).
func isTypedColType(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		return namedIn(s.Elem(), "internal/vector", "TypedCol")
	}
	return namedIn(t, "internal/vector", "TypedCol")
}

func runTypedAlias(pass *Pass) error {
	if hasPathSuffix(pass.Pkg.Path(), "internal/vector") || pass.Pkg.Path() == "internal/vector" {
		return nil // the vector package owns the representation
	}
	spec := &taintSpec{
		tracked: isTypedColType,
		source: func(p *Pass, e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.CallExpr:
				// chunk.Typed() / b.TypedCol(i): any call returning a view.
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				if sel.Sel.Name != "Typed" && sel.Sel.Name != "TypedCol" {
					return false
				}
				tv, ok := p.Info.Types[x]
				return ok && isTypedColType(tv.Type)
			case *ast.SelectorExpr:
				// b.Typed: the batch's view list.
				if x.Sel.Name != "Typed" {
					return false
				}
				tv, ok := p.Info.Types[x.X]
				if !ok || !isBatchType(tv.Type) {
					return false
				}
				fv, ok := p.Info.Types[x]
				return ok && isTypedColType(fv.Type)
			}
			return false
		},
		viewCall: func(p *Pass, call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && typedViewMethods[sel.Sel.Name]
		},
		allowComposite: func(p *Pass, lit *ast.CompositeLit) bool {
			tv, ok := p.Info.Types[lit]
			return ok && isBatchType(tv.Type)
		},
		allowFieldStore: func(p *Pass, sel *ast.SelectorExpr) bool {
			// b.Typed[i] = view / b.Typed = views: batches carry views by design.
			if sel.Sel.Name != "Typed" {
				return false
			}
			tv, ok := p.Info.Types[sel.X]
			return ok && isBatchType(tv.Type)
		},
	}
	runTaintFlow(pass, spec, func(pos token.Pos, kind escapeKind, what string) {
		pass.Reportf(pos, "TypedCol view %s %s; views alias chunk or register storage and must not outlive their producer — use Materialize for an owned copy", kind, what)
	})
	return nil
}

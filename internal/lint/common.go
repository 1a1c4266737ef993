package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedIn reports whether t (possibly behind a pointer) is the named type
// pkgSuffix.name, matching the package by import-path suffix so the test
// fixtures' stand-in packages qualify alongside the real ones.
func namedIn(t types.Type, pkgSuffix, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// isBatchType reports whether t is vector.Batch (or *vector.Batch).
func isBatchType(t types.Type) bool { return namedIn(t, "internal/vector", "Batch") }

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isBatchIterType reports whether t structurally satisfies the executor
// interface: NextBatch() (*vector.Batch, error) and Close(). Matching is
// structural rather than by name so the analyzers hold for any operator
// implementation, including the test fixtures'.
func isBatchIterType(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	var haveNext, haveClose bool
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		sig, ok := m.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch m.Name() {
		case "NextBatch":
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 &&
				isBatchType(sig.Results().At(0).Type()) && isErrorType(sig.Results().At(1).Type()) {
				haveNext = true
			}
		case "Close":
			if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				haveClose = true
			}
		}
	}
	return haveNext && haveClose
}

// isKernelSig reports whether t is an expression-kernel signature: a
// leading *vector.Batch parameter and ([]T, error) results. The engine's is
// exprDAG.eval, func(*vector.Batch) ([][]variant.Value, error), whose result
// is the DAG's registers, overwritten by its next call; anything
// batch-leading with a slice first result (trailing parameters allowed) is
// held to the same contract. The result element type is left open so
// fixtures don't need the real variant package.
func isKernelSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Params().Len() < 1 || sig.Results().Len() != 2 {
		return false
	}
	if !isBatchType(sig.Params().At(0).Type()) {
		return false
	}
	if _, ok := sig.Results().At(0).Type().Underlying().(*types.Slice); !ok {
		return false
	}
	return isErrorType(sig.Results().At(1).Type())
}

// objOf resolves an identifier to its object, or nil.
func objOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// funcUnit is one analysis scope: a function declaration's or function
// literal's body. Nested literals are separate units.
type funcUnit struct {
	name string
	body *ast.BlockStmt
}

// funcUnits collects every function body in the file, outermost first.
func funcUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				units = append(units, funcUnit{name: x.Name.Name, body: x.Body})
			}
		case *ast.FuncLit:
			units = append(units, funcUnit{name: "func literal", body: x.Body})
		}
		return true
	})
	return units
}

// declaredWithin reports whether obj's declaration lies inside the body.
// Identifiers used in a unit but declared outside it are captured (closure)
// or package-level state.
func declaredWithin(obj types.Object, body *ast.BlockStmt) bool {
	return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// receiverObj returns the tracked object a method call's receiver resolves
// to: for sel.X being an identifier, its object.
func receiverObj(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return objOf(info, sel.X), sel.Sel.Name
}

// exprString renders a short expression for messages (identifiers and
// selector chains; anything else becomes "<expr>").
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "<expr>"
}

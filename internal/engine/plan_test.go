package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// planKinds holds one row per plan-node kind: TestPlanTraversal fills each
// by reflection.
var planKinds = []Node{
	&ScanNode{}, &FilterNode{}, &ProjectNode{}, &FlattenNode{}, &AggregateNode{},
	&JoinNode{}, &SortNode{}, &LimitNode{}, &UnionNode{}, &ExchangeNode{}, &viewRowsNode{},
}

// physicalAnnotations name the node fields that point into the plan without
// being inputs: the segments the physical pass recorded for replay.
var physicalAnnotations = []string{"Scan", "Stages", "Match"}

var (
	nodeType = reflect.TypeFor[Node]()
	exprType = reflect.TypeFor[sqlast.Expr]()
)

// TestPlanTraversal checks inputSlots and exprSlots, the only per-kind lists
// of a node's inputs and expressions, against the node structs: every field
// holding a Node (bar the physical annotations) is an input slot, in field
// order, and every field holding a sqlast.Expr, also inside AggSpec,
// OrderItem and FlattenBound, is an expression slot. A new kind or field
// then cannot be skipped by the rules that traverse through them
// (simplify, prune, merge-projects, zone-map derivation, the plan checks),
// and simplify is checked to reach every expression.
func TestPlanTraversal(t *testing.T) {
	covered := map[string]bool{}
	for _, n := range planKinds {
		covered[reflect.TypeOf(n).Elem().Name()] = true
	}
	kinds := declaredNodeKinds(t)
	for _, kind := range kinds {
		if !covered[kind] {
			t.Errorf("plan-node kind %s has no row in planKinds", kind)
		}
	}
	if len(kinds) < 11 {
		t.Fatalf("found %d Schema methods in the package, want at least 11", len(kinds))
	}

	for _, row := range planKinds {
		kind := reflect.TypeOf(row).Elem()
		t.Run(kind.Name(), func(t *testing.T) {
			n := reflect.New(kind).Interface().(Node)
			f := &planFiller{t: t}
			f.fill(reflect.ValueOf(n).Elem(), kind.Name())

			var gotIn []uintptr
			inputSlots(n, func(s *Node) { gotIn = append(gotIn, reflect.ValueOf(s).Pointer()) })
			if !slices.Equal(gotIn, f.inputs) {
				t.Errorf("inputSlots does not list the Node fields %v, in order", f.inputNames)
			}

			got := map[uintptr]bool{}
			exprSlots(n, func(s *sqlast.Expr) {
				p := reflect.ValueOf(s).Pointer()
				if got[p] {
					t.Errorf("exprSlots lists one field twice")
				}
				got[p] = true
			})
			for i, p := range f.exprs {
				if !got[p] {
					t.Errorf("exprSlots misses expression field %s", f.exprNames[i])
				}
				delete(got, p)
			}
			if len(got) > 0 {
				t.Errorf("exprSlots lists %d slots that are no expression field", len(got))
			}

			// Every expression was filled as GET(OBJECT_CONSTRUCT('k', c), 'k'):
			// simplify folds each to its column.
			simplifyNode(n)
			for i, v := range f.exprVals {
				if _, ok := v.Interface().(*sqlast.ColRef); !ok {
					t.Errorf("simplify skipped %s: %s", f.exprNames[i], sqlast.RenderExpr(v.Interface().(sqlast.Expr)))
				}
			}
		})
	}
}

// planFiller sets every Node and sqlast.Expr reachable in a node struct —
// through structs, slices (two elements each) and pointers, never into an
// input — and records each field's address.
type planFiller struct {
	t                     *testing.T
	inputs, exprs         []uintptr
	inputVals, exprVals   []reflect.Value
	inputNames, exprNames []string
}

func (f *planFiller) fill(v reflect.Value, path string) {
	typ := v.Type()
	switch {
	case typ == exprType:
		c := sqlast.C(fmt.Sprintf("c%d", len(f.exprs)))
		get := &sqlast.FuncCall{Name: "GET", Args: []sqlast.Expr{
			&sqlast.FuncCall{Name: "OBJECT_CONSTRUCT", Args: []sqlast.Expr{sqlast.L(variant.String("k")), c}},
			sqlast.L(variant.String("k")),
		}}
		f.set(v, reflect.ValueOf(get), path)
		f.exprs, f.exprVals, f.exprNames = append(f.exprs, v.Addr().Pointer()), append(f.exprVals, v), append(f.exprNames, path)
	case typ == nodeType || typ.Implements(nodeType):
		in := reflect.ValueOf(Node(&ScanNode{}))
		if typ != nodeType {
			in = reflect.New(typ.Elem())
		}
		f.set(v, in, path)
		f.inputs, f.inputVals, f.inputNames = append(f.inputs, v.Addr().Pointer()), append(f.inputVals, v), append(f.inputNames, path)
	case !holdsPlanParts(typ, map[reflect.Type]bool{}):
	case typ.Kind() == reflect.Slice:
		f.set(v, reflect.MakeSlice(typ, 2, 2), path)
		for i := range 2 {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case typ.Kind() == reflect.Pointer:
		f.set(v, reflect.New(typ.Elem()), path)
		f.fill(v.Elem(), path)
	case typ.Kind() == reflect.Struct:
		isNode := reflect.PointerTo(typ).Implements(nodeType)
		for i := range typ.NumField() {
			name := typ.Field(i).Name
			if isNode && slices.Contains(physicalAnnotations, name) {
				continue
			}
			f.fill(v.Field(i), path+"."+name)
		}
	default:
		f.t.Fatalf("%s: %s holds plan parts the filler cannot reach", path, typ)
	}
}

func (f *planFiller) set(v, x reflect.Value, path string) {
	if !v.CanSet() {
		f.t.Fatalf("%s is unexported but holds a Node or an Expr", path)
	}
	v.Set(x)
}

// holdsPlanParts reports whether a value of typ can hold a Node or a
// sqlast.Expr. seen breaks cycles through recursive types.
func holdsPlanParts(typ reflect.Type, seen map[reflect.Type]bool) bool {
	if typ == exprType || typ == nodeType || typ.Implements(nodeType) {
		return true
	}
	if seen[typ] {
		return false
	}
	seen[typ] = true
	switch typ.Kind() {
	case reflect.Slice, reflect.Array, reflect.Pointer:
		return holdsPlanParts(typ.Elem(), seen)
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsPlanParts(typ.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// declaredNodeKinds parses the package's non-test files and returns the
// types that declare a Schema method: the Node implementations.
func declaredNodeKinds(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Schema" {
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			kinds = append(kinds, typ.(*ast.Ident).Name)
		}
	}
	return kinds
}

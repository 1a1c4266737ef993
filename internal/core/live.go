package core

import (
	"slices"

	"jsonpark/internal/jsoniq"
)

// pending is the rest of one FLWOR the translation is inside: the clause
// being translated and those after it (none once the return is), and the
// return. node is the expression the FLWOR translates — the FLWOR itself,
// or the argument a synthetic one iterates — so an enclosing entry can
// skip what this one covers. aux names the auxiliary columns its nested
// query reads until it ends (row ID, KEEP flag, FLATTEN index, order
// keys), held the nested-query results its current clause has produced
// and not yet consumed.
type pending struct {
	node      jsoniq.Expr
	clauses   []jsoniq.Clause
	ret       jsoniq.Expr
	aux, held []string
}

// enter pushes the pending entry of a FLWOR over node and returns its
// index; the caller advances it clause by clause and calls leave when done.
func (tr *translator) enter(node jsoniq.Expr, clauses []jsoniq.Clause, ret jsoniq.Expr) int {
	tr.pending = append(tr.pending, pending{node: node, clauses: clauses, ret: ret})
	return len(tr.pending) - 1
}

func (tr *translator) leave() { tr.pending = tr.pending[:len(tr.pending)-1] }

// advance moves entry at on to the clauses cs (nil: the return) and ret;
// the results the previous clause held are consumed.
func (tr *translator) advance(at int, cs []jsoniq.Clause, ret jsoniq.Expr) {
	p := &tr.pending[at]
	p.clauses, p.ret, p.held = cs, ret, nil
}

// live returns the columns the translation still reads once the expression
// node — nil for none — is translated (a map valid until the next call): the rest of every FLWOR around it,
// each without the one nested in it, and each entry's aux and held
// columns. A variable read as a whole value needs its column ("v"), a field
// read off a collection variable its passthrough column ("v.F").
// RenameShadowed made every name one binding, so a name read anywhere
// there is this binding. Nodes are skipped by identity, which is sound
// because no node occurs twice in the tree: the inliner copies an argument
// at each use of its parameter.
func (tr *translator) live(node jsoniq.Expr) map[string]bool {
	r := &tr.reads
	if r.cols == nil {
		r.tr, r.cols = tr, make(map[string]bool)
	}
	clear(r.cols)
	for i, p := range tr.pending {
		r.skip = node
		if i+1 < len(tr.pending) {
			r.skip = tr.pending[i+1].node
		}
		r.chain(p.clauses, p.ret)
		for _, cs := range [][]string{p.aux, p.held} {
			for _, c := range cs {
				r.cols[c] = true
			}
		}
	}
	return r.cols
}

// liveColumns returns those of cols, which it reuses, that the translation
// reads after node.
func (tr *translator) liveColumns(cols []string, node jsoniq.Expr) []string {
	live := tr.live(node)
	return slices.DeleteFunc(cols, func(c string) bool { return !live[c] })
}

// reads collects the columns an expression reads, as live describes them.
type reads struct {
	tr   *translator
	skip jsoniq.Expr
	cols map[string]bool
	// keys, once a group by is passed, holds its key variables: every other
	// variable is grouped, so an aggregate over it reads its argument before
	// the grouping and any other read of it needs its column whole.
	keys map[string]bool
}

// chain reads the clauses cs, then ret.
func (r *reads) chain(cs []jsoniq.Clause, ret jsoniq.Expr) {
	keys := r.keys
	for _, c := range cs {
		gb, ok := c.(*jsoniq.GroupByClause)
		if !ok {
			jsoniq.MapClause(c, r.visit)
			continue
		}
		grouped := make(map[string]bool, len(gb.Keys))
		for _, k := range gb.Keys {
			if k.Expr == nil {
				r.cols[k.Var] = true
			} else {
				r.visit(k.Expr)
			}
			grouped[k.Var] = true
		}
		r.keys = grouped
	}
	r.visit(ret)
	r.keys = keys
}

func (r *reads) visit(e jsoniq.Expr) jsoniq.Expr {
	if e == r.skip {
		return e
	}
	switch x := e.(type) {
	case *jsoniq.VarRef:
		r.cols[x.Name] = true
	case *jsoniq.FieldAccess:
		if v, ok := x.Base.(*jsoniq.VarRef); ok && !r.grouped(v.Name) && slices.Contains(r.tr.tableVars[v.Name], x.Field) {
			r.cols[v.Name+"."+x.Field] = true
		} else {
			r.visit(x.Base)
		}
	case *jsoniq.FunctionCall:
		if _, arg, ok := groupedCall(x, r.grouped, r.tr.nonNull); ok {
			if arg != nil {
				keys := r.keys
				r.keys = nil
				r.visit(arg)
				r.keys = keys
			}
			return e
		}
		jsoniq.MapChildren(e, r.visit)
	case *jsoniq.FLWOR:
		r.chain(x.Clauses, x.Return)
	default:
		jsoniq.MapChildren(e, r.visit)
	}
	return e
}

// grouped reports whether v is a grouped variable where r reads.
func (r *reads) grouped(v string) bool { return r.keys != nil && !r.keys[v] }

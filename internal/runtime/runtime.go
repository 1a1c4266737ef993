// Package runtime is the interpreted JSONiq back-end: it evaluates the
// rewritten expression tree directly over materialized JSON items with per-item dynamic
// dispatch and clause-by-clause materialization. It is the stand-in for the
// paper's DSQL baselines (§V-A): the ProfileRumbleSpark profile adds
// serialization at pipeline-stage boundaries (Spark shuffle + UDF data
// movement), while ProfileAsterix parses documents at scan time (document
// store without shredded storage). Both retain the defining property the
// paper attributes to DSQL engines: interpretation overhead and optimization
// barriers, in contrast to the single compiled SQL query of the translator.
package runtime

import (
	"fmt"
	"sort"

	"jsonpark/internal/jsoniq"
	"jsonpark/internal/variant"
)

// Profile selects the baseline cost model.
type Profile int

// Profiles.
const (
	// ProfileDefault interprets over in-memory values with no extra costs.
	ProfileDefault Profile = iota
	// ProfileRumbleSpark re-serializes tuple bindings at for-clause
	// boundaries, modeling Spark stage shuffles and UDF data movement.
	ProfileRumbleSpark
	// ProfileAsterix stores collections as serialized JSON and parses each
	// document at scan time (no shredded/columnar storage).
	ProfileAsterix
)

// Engine is one interpreted back-end instance.
type Engine struct {
	profile     Profile
	collections map[string][]variant.Value
	encoded     map[string][][]byte
}

// New returns an empty interpreted engine with the given profile.
func New(profile Profile) *Engine {
	return &Engine{
		profile:     profile,
		collections: make(map[string][]variant.Value),
		encoded:     make(map[string][][]byte),
	}
}

// LoadCollection registers a named collection of items.
func (e *Engine) LoadCollection(name string, docs []variant.Value) {
	e.collections[name] = docs
	if e.profile == ProfileAsterix {
		enc := make([][]byte, len(docs))
		for i, d := range docs {
			enc[i] = []byte(d.JSON())
		}
		e.encoded[name] = enc
	}
}

// Run parses nothing: it executes an already-parsed query and returns the
// result items in order.
func (e *Engine) Run(query jsoniq.Expr) ([]variant.Value, error) {
	if fl, ok := query.(*jsoniq.FLWOR); ok {
		return e.runFLWOR(fl, newTuple(nil))
	}
	v, err := e.eval(query, newTuple(nil))
	if err != nil {
		return nil, err
	}
	return []variant.Value{v}, nil
}

// tuple is one FLWOR binding environment.
type tuple map[string]variant.Value

func newTuple(parent tuple) tuple {
	t := make(tuple, len(parent)+2)
	for k, v := range parent {
		t[k] = v
	}
	return t
}

// serializeBoundary simulates a stage barrier: every binding is round-tripped
// through its serialized form.
func serializeBoundary(ts []tuple) []tuple {
	out := make([]tuple, len(ts))
	for i, t := range ts {
		nt := make(tuple, len(t))
		for k, v := range t {
			decoded, err := variant.ParseJSON([]byte(v.JSON()))
			if err != nil {
				decoded = v
			}
			nt[k] = decoded
		}
		out[i] = nt
	}
	return out
}

// runFLWOR materializes the tuple stream clause by clause (the interpreted
// execution mode) and evaluates the return expression per tuple.
func (e *Engine) runFLWOR(f *jsoniq.FLWOR, env tuple) ([]variant.Value, error) {
	tuples := []tuple{env}
	for _, c := range f.Clauses {
		var err error
		tuples, err = e.applyClause(c, tuples)
		if err != nil {
			return nil, err
		}
	}
	out := make([]variant.Value, 0, len(tuples))
	for _, t := range tuples {
		v, err := e.eval(f.Return, t)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (e *Engine) applyClause(c jsoniq.Clause, in []tuple) ([]tuple, error) {
	switch cl := c.(type) {
	case *jsoniq.ForClause:
		var out []tuple
		for _, t := range in {
			seq, err := e.sequenceOf(cl.In, t)
			if err != nil {
				return nil, err
			}
			if len(seq) == 0 && cl.AllowEmpty {
				nt := newTuple(t)
				nt[cl.Var] = variant.Null
				if cl.PosVar != "" {
					nt[cl.PosVar] = variant.Int(0)
				}
				out = append(out, nt)
				continue
			}
			for i, item := range seq {
				nt := newTuple(t)
				nt[cl.Var] = item
				if cl.PosVar != "" {
					nt[cl.PosVar] = variant.Int(int64(i + 1))
				}
				out = append(out, nt)
			}
		}
		if e.profile == ProfileRumbleSpark {
			out = serializeBoundary(out)
		}
		return out, nil
	case *jsoniq.LetClause:
		out := make([]tuple, len(in))
		for i, t := range in {
			v, err := e.eval(cl.Expr, t)
			if err != nil {
				return nil, err
			}
			nt := newTuple(t)
			nt[cl.Var] = v
			out[i] = nt
		}
		return out, nil
	case *jsoniq.WhereClause:
		var out []tuple
		for _, t := range in {
			v, err := e.eval(cl.Cond, t)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, t)
			}
		}
		return out, nil
	case *jsoniq.GroupByClause:
		return e.applyGroupBy(cl, in)
	case *jsoniq.OrderByClause:
		type keyed struct {
			t    tuple
			keys []variant.Value
		}
		ks := make([]keyed, len(in))
		for i, t := range in {
			kv := make([]variant.Value, len(cl.Keys))
			for j, k := range cl.Keys {
				v, err := e.eval(k.Expr, t)
				if err != nil {
					return nil, err
				}
				kv[j] = v
			}
			ks[i] = keyed{t: t, keys: kv}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for j := range cl.Keys {
				c := variant.Compare(ks[a].keys[j], ks[b].keys[j])
				if cl.Keys[j].Descending {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		out := make([]tuple, len(ks))
		for i := range ks {
			out[i] = ks[i].t
		}
		return out, nil
	case *jsoniq.CountClause:
		out := make([]tuple, len(in))
		for i, t := range in {
			nt := newTuple(t)
			nt[cl.Var] = variant.Int(int64(i + 1))
			out[i] = nt
		}
		return out, nil
	}
	return nil, fmt.Errorf("runtime: unsupported clause %T", c)
}

// applyGroupBy groups tuples by the key variables; every non-grouping
// variable becomes an array of its per-tuple values, per JSONiq semantics.
func (e *Engine) applyGroupBy(cl *jsoniq.GroupByClause, in []tuple) ([]tuple, error) {
	type group struct {
		keyVals []variant.Value
		tuples  []tuple
	}
	groups := make(map[string]*group)
	var order []string
	for _, t := range in {
		keyVals := make([]variant.Value, len(cl.Keys))
		hk := ""
		for i, k := range cl.Keys {
			var v variant.Value
			var err error
			if k.Expr != nil {
				v, err = e.eval(k.Expr, t)
			} else {
				var ok bool
				v, ok = t[k.Var]
				if !ok {
					err = fmt.Errorf("runtime: group by references unbound variable $%s", k.Var)
				}
			}
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			hk += v.HashKey() + "|"
		}
		g, ok := groups[hk]
		if !ok {
			g = &group{keyVals: keyVals}
			groups[hk] = g
			order = append(order, hk)
		}
		g.tuples = append(g.tuples, t)
	}
	// Collect the set of non-grouping variables.
	keyVars := make(map[string]bool, len(cl.Keys))
	for _, k := range cl.Keys {
		keyVars[k.Var] = true
	}
	varSet := make(map[string]bool)
	for _, t := range in {
		for name := range t {
			if !keyVars[name] {
				varSet[name] = true
			}
		}
	}
	out := make([]tuple, 0, len(order))
	for _, hk := range order {
		g := groups[hk]
		nt := make(tuple, len(cl.Keys)+len(varSet))
		for i, k := range cl.Keys {
			nt[k.Var] = g.keyVals[i]
		}
		for name := range varSet {
			vals := make([]variant.Value, 0, len(g.tuples))
			for _, t := range g.tuples {
				if v, ok := t[name]; ok {
					vals = append(vals, v)
				}
			}
			nt[name] = variant.ArrayOf(vals)
		}
		out = append(out, nt)
	}
	return out, nil
}

// sequenceOf evaluates a for-clause binding expression as a sequence.
func (e *Engine) sequenceOf(in jsoniq.Expr, t tuple) ([]variant.Value, error) {
	switch x := in.(type) {
	case *jsoniq.ArrayUnbox:
		base, err := e.eval(x.Base, t)
		if err != nil {
			return nil, err
		}
		if base.Kind() != variant.KindArray {
			return nil, nil
		}
		return base.AsArray(), nil
	case *jsoniq.Collection:
		return e.scanCollection(x.Name)
	case *jsoniq.Binary:
		if x.Op == jsoniq.OpTo {
			v, err := e.eval(in, t)
			if err != nil {
				return nil, err
			}
			return v.AsArray(), nil
		}
	case *jsoniq.FLWOR:
		return e.runFLWOR(x, t)
	}
	v, err := e.eval(in, t)
	if err != nil {
		return nil, err
	}
	// An array-valued binding iterates its members when produced by a nested
	// query (let-bound arrays), matching the translation's flatten behaviour.
	if v.Kind() == variant.KindArray {
		return v.AsArray(), nil
	}
	if v.IsNull() {
		return nil, nil
	}
	return []variant.Value{v}, nil
}

func (e *Engine) scanCollection(name string) ([]variant.Value, error) {
	if e.profile == ProfileAsterix {
		enc, ok := e.encoded[name]
		if !ok {
			return nil, fmt.Errorf("runtime: unknown collection %q", name)
		}
		out := make([]variant.Value, len(enc))
		for i, raw := range enc {
			v, err := variant.ParseJSON(raw)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	docs, ok := e.collections[name]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown collection %q", name)
	}
	return docs, nil
}

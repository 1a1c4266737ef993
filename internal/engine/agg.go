package engine

import (
	"fmt"
	"sort"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// accumulator folds rows of one group for one aggregate. Order keys are
// only supplied for ordered ARRAY_AGG; add copies the ones it keeps, so the
// caller may reuse the slice. result leaves the state intact (materialized
// views finalize and keep folding); reset returns it to the empty group, so
// the streaming aggregate folds every group into one accumulator.
type accumulator interface {
	add(v variant.Value, orderKeys []variant.Value) error
	result(descs []bool) variant.Value
	reset()
}

func newAccumulator(spec AggSpec) accumulator {
	switch spec.Name {
	case "COUNT":
		if spec.Distinct {
			return &countDistinctAcc{seen: make(map[string]bool)}
		}
		return &countAcc{star: spec.Star}
	case "COUNT_IF":
		return &countIfAcc{}
	case "SUM":
		return &sumAcc{}
	case "AVG":
		return &avgAcc{}
	case "MIN":
		return &minMaxAcc{dir: -1}
	case "MAX":
		return &minMaxAcc{dir: 1}
	case "ANY_VALUE":
		return &anyValueAcc{}
	case "ARRAY_AGG":
		if spec.Top1 {
			return newTop1Acc(spec.OrderBy)
		}
		a := &arrayAggAcc{distinct: spec.Distinct, nord: len(spec.OrderBy)}
		if a.distinct {
			a.seen = make(map[string]bool)
		}
		return a
	case "BOOLAND_AGG":
		return &boolAgg{isAnd: true}
	case "BOOLOR_AGG":
		return &boolAgg{}
	}
	return &errAcc{name: spec.Name}
}

type errAcc struct{ name string }

func (a *errAcc) add(variant.Value, []variant.Value) error {
	return fmt.Errorf("engine: unsupported aggregate %s", a.name)
}
func (a *errAcc) result([]bool) variant.Value { return variant.Null }
func (a *errAcc) reset()                      {}

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v variant.Value, _ []variant.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAcc) result([]bool) variant.Value { return variant.Int(a.n) }
func (a *countAcc) reset()                      { a.n = 0 }

// countDistinctAcc dedups on the canonical binary group key (same
// equivalence classes as HashKey, but encoded into a reusable buffer so the
// map lookup on a seen value allocates nothing).
type countDistinctAcc struct {
	seen map[string]bool
	kbuf []byte
}

func (a *countDistinctAcc) add(v variant.Value, _ []variant.Value) error {
	if !v.IsNull() {
		a.kbuf = v.AppendGroupKey(a.kbuf[:0])
		if !a.seen[string(a.kbuf)] {
			a.seen[string(a.kbuf)] = true
		}
	}
	return nil
}
func (a *countDistinctAcc) result([]bool) variant.Value { return variant.Int(int64(len(a.seen))) }
func (a *countDistinctAcc) reset()                      { clear(a.seen) }

type countIfAcc struct{ n int64 }

func (a *countIfAcc) add(v variant.Value, _ []variant.Value) error {
	if !v.IsNull() && truthySQL(v) {
		a.n++
	}
	return nil
}
func (a *countIfAcc) result([]bool) variant.Value { return variant.Int(a.n) }
func (a *countIfAcc) reset()                      { a.n = 0 }

type sumAcc struct {
	intSum   int64
	floatSum float64
	anyFloat bool
	n        int64
}

func (a *sumAcc) add(v variant.Value, _ []variant.Value) error {
	switch v.Kind() {
	case variant.KindNull:
		return nil
	case variant.KindInt:
		a.intSum += v.AsInt()
	case variant.KindFloat:
		a.floatSum += v.AsFloat()
		a.anyFloat = true
	default:
		return fmt.Errorf("engine: SUM over non-numeric value of type %s", v.Kind())
	}
	a.n++
	return nil
}

func (a *sumAcc) result([]bool) variant.Value {
	if a.n == 0 {
		return variant.Null
	}
	if a.anyFloat {
		return variant.Float(a.floatSum + float64(a.intSum))
	}
	return variant.Int(a.intSum)
}

func (a *sumAcc) reset() { *a = sumAcc{} }

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if !v.IsNumber() {
		return fmt.Errorf("engine: AVG over non-numeric value of type %s", v.Kind())
	}
	a.sum += v.AsFloat()
	a.n++
	return nil
}

func (a *avgAcc) result([]bool) variant.Value {
	if a.n == 0 {
		return variant.Null
	}
	return variant.Float(a.sum / float64(a.n))
}

func (a *avgAcc) reset() { *a = avgAcc{} }

type minMaxAcc struct {
	dir  int
	best variant.Value
	any  bool
}

func (a *minMaxAcc) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.any || a.dir*variant.Compare(v, a.best) > 0 {
		a.best = v
		a.any = true
	}
	return nil
}

func (a *minMaxAcc) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return a.best
}

func (a *minMaxAcc) reset() { *a = minMaxAcc{dir: a.dir} }

type anyValueAcc struct {
	v   variant.Value
	any bool
}

func (a *anyValueAcc) add(v variant.Value, _ []variant.Value) error {
	if !a.any {
		a.v = v
		a.any = true
	}
	return nil
}

func (a *anyValueAcc) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return a.v
}

func (a *anyValueAcc) reset() { *a = anyValueAcc{} }

// arrayAggAcc collects non-NULL values, optionally de-duplicating, and sorts
// by the WITHIN GROUP order keys at finalization. NULL inputs are skipped —
// the property the paper's KEEP-flag strategy relies on (§IV-C1). The order
// keys of the kept values sit flat in orders, nord per value, so a dropped
// row (NULL, or a DISTINCT duplicate) costs nothing and a kept one no slice
// of its own. seen exists only under DISTINCT.
type arrayAggAcc struct {
	distinct bool
	nord     int
	seen     map[string]bool
	kbuf     []byte
	vals     []variant.Value
	orders   []variant.Value
	idx      []int // result's sort permutation, reused
}

func (a *arrayAggAcc) add(v variant.Value, orderKeys []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		a.kbuf = v.AppendGroupKey(a.kbuf[:0])
		if a.seen[string(a.kbuf)] {
			return nil
		}
		a.seen[string(a.kbuf)] = true
	}
	a.vals = append(a.vals, v)
	a.orders = append(a.orders, orderKeys...)
	return nil
}

// orderOf returns the WITHIN GROUP keys of the i-th kept value.
func (a *arrayAggAcc) orderOf(i int) []variant.Value {
	return a.orders[i*a.nord : (i+1)*a.nord]
}

// result always builds a fresh array: vals is the accumulator's own buffer
// (appended to by later adds, recycled by reset).
func (a *arrayAggAcc) result(descs []bool) variant.Value {
	if a.nord == 0 || len(a.vals) == 0 {
		return variant.ArrayOf(append([]variant.Value(nil), a.vals...))
	}
	idx := a.idx[:0]
	for i := range a.vals {
		idx = append(idx, i)
	}
	a.idx = idx
	sort.SliceStable(idx, func(x, y int) bool {
		ka, kb := a.orderOf(idx[x]), a.orderOf(idx[y])
		for k := range ka {
			c := variant.Compare(ka[k], kb[k])
			if k < len(descs) && descs[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := make([]variant.Value, len(a.vals))
	for i, j := range idx {
		sorted[i] = a.vals[j]
	}
	return variant.ArrayOf(sorted)
}

func (a *arrayAggAcc) reset() {
	a.vals, a.orders = a.vals[:0], a.orders[:0]
	clear(a.seen)
}

// top1Acc is an ordered ARRAY_AGG's element 0 (AggSpec.Top1): the non-NULL
// value whose WITHIN GROUP keys come first, NULL for a group with none. It
// keeps one (value, keys) pair and replaces it only on strictly smaller keys,
// so of equal keys the first row in input order wins — the element
// arrayAggAcc's stable sort puts first, wherever variant.Compare totally
// orders the keys (see DESIGN.md §6 for the keys it does not).
type top1Acc struct {
	descs []bool
	best  variant.Value
	keys  []variant.Value
	any   bool
}

func newTop1Acc(order []sqlast.OrderItem) *top1Acc {
	a := &top1Acc{descs: make([]bool, len(order)), keys: make([]variant.Value, len(order))}
	for i, o := range order {
		a.descs[i] = o.Desc
	}
	return a
}

func (a *top1Acc) add(v variant.Value, orderKeys []variant.Value) error {
	if v.IsNull() || a.any && compareSortKeys(a.descs, orderKeys, a.keys) >= 0 {
		return nil
	}
	a.best, a.any = v, true
	copy(a.keys, orderKeys)
	return nil
}

func (a *top1Acc) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return a.best
}

func (a *top1Acc) reset() { a.best, a.any = variant.Null, false }

// boolAgg implements BOOLAND_AGG / BOOLOR_AGG over non-NULL inputs.
type boolAgg struct {
	isAnd bool
	acc   bool
	any   bool
}

func (a *boolAgg) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	b := truthySQL(v)
	if !a.any {
		a.acc = b
		a.any = true
		return nil
	}
	if a.isAnd {
		a.acc = a.acc && b
	} else {
		a.acc = a.acc || b
	}
	return nil
}

func (a *boolAgg) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return variant.Bool(a.acc)
}

func (a *boolAgg) reset() { *a = boolAgg{isAnd: a.isAnd} }

// mergeAccumulators folds src into dst. The parallel aggregate merges
// partial states in storage-partition index order, which equals input row
// order, so every merge below reproduces the sequential fold exactly.
// Only the aggregates admitted by aggsMergeWhy ever reach this function;
// anything else (SUM/AVG float folds, unknown aggregates) is rejected at
// physicalization and errors here as a guard.
func mergeAccumulators(dst, src accumulator) error {
	switch s := src.(type) {
	case *countAcc:
		d := dst.(*countAcc)
		d.n += s.n
	case *countIfAcc:
		d := dst.(*countIfAcc)
		d.n += s.n
	case *countDistinctAcc:
		d := dst.(*countDistinctAcc)
		for k := range s.seen {
			d.seen[k] = true
		}
	case *minMaxAcc:
		d := dst.(*minMaxAcc)
		if s.any {
			if err := d.add(s.best, nil); err != nil {
				return err
			}
		}
	case *anyValueAcc:
		d := dst.(*anyValueAcc)
		if !d.any && s.any {
			d.v = s.v
			d.any = true
		}
	case *boolAgg:
		d := dst.(*boolAgg)
		if s.any {
			if err := d.add(variant.Bool(s.acc), nil); err != nil {
				return err
			}
		}
	case *top1Acc:
		// dst holds the earlier rows: it keeps ties.
		if s.any {
			return dst.add(s.best, s.keys)
		}
	case *arrayAggAcc:
		d := dst.(*arrayAggAcc)
		if !d.distinct {
			d.vals = append(d.vals, s.vals...)
			d.orders = append(d.orders, s.orders...)
			break
		}
		// DISTINCT: re-check each later-partition value against the merged
		// seen set so first-occurrence dedup matches the sequential order.
		for i, v := range s.vals {
			if err := d.add(v, s.orderOf(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("engine: aggregate %T is not mergeable", src)
	}
	return nil
}

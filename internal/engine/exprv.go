package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// exprDAG is one operator's compiled expression set: everything it evaluates
// per batch (a select list, a condition, grouping keys plus aggregate
// arguments) as one DAG over one register file (DESIGN.md §6 "Expressions").
//
// Pass 1 hash-conses the AST bottom-up into structural nodes, so equal
// deterministic sub-expressions are one node. Pass 2 emits scoped instances
// in evaluation order: the lazy operand of AND/OR and every CASE arm is a
// block with its own scope, run under the restricted selection. A node is
// instantiated once per scope and found again from nested scopes (subset
// selections, run later), never from a sibling or enclosing one, so nothing
// is hoisted out of an arm and errors are those of evaluating every
// occurrence. Liveness then packs the instances onto register slots.
//
// The registers belong to the DAG: it serves one pipeline instance (each
// parallel worker compiles its own), an eval result is valid until the next
// eval, and steady-state evaluation allocates nothing. Each register slot has
// a variant and a typed form (exprt.go).
type exprDAG struct {
	ctx      *execContext // nil-safe: the query's typed/fallback counters
	st       *OpStats     // nil-safe: the operator's typed/fallback counters
	typed    bool         // typed registers on (WithTypedColumns)
	nodes    []*exprNode
	insts    []exprInst
	code     []int32 // root-scope instructions, in evaluation order
	roots    []int32 // instance per compiled expression
	slots    int
	regs     [][]variant.Value // the register file, slots long, made on first eval
	tregs    []vector.TypedCol // its typed form, one register per slot
	forms    vector.Batch      // forms.Typed[inst]: the instance's typed result in this batch, nil when variant
	outs     [][]variant.Value // eval result header, one vector per root
	argv     [][]variant.Value // opFunc scratch: operand vectors, one row's arguments
	argBuf   []variant.Value
	rest     []int  // selectTrue scratch: the rows that fail
	n        int    // physical rows of the batch under evaluation
	epoch    uint64 // bumped per eval; stamps conversions of typed results
	astNodes int
	// Typed vectors kernels read and typed results converted to variants in
	// the current call, added to ctx and st once per call (flush).
	nTyped, nFallback int
}

type exprOp uint8

const (
	opLit exprOp = iota
	opCol
	opSeq
	opFunc
	opField // GET(x,'key'), and GET_PATH(x,'a.b') as nested GETs: the key (name) is resolved at compile time
	opBin
	opUnary  // - NOT and CAST; - and CAST over variants as the elementwise function un
	opIsNull // IS [NOT] NULL
	opAnd
	opOr
	opCase
)

// exprNode is one structurally distinct sub-expression. kids of a CASE are
// cond0, result0, cond1, result1, ... and the ELSE last when flag is set;
// flag is also IS NOT NULL's negation. kern names the typed kernel of an
// operator (binKerns, unaryKerns) or of a function (typedFuncs index + 1).
type exprNode struct {
	op   exprOp
	flag bool
	kern uint8
	col  int32
	kids []int32
	lit  variant.Value
	name string // function, operator, or upper-cased cast type
	fn   scalarFunc
	bin  func(l, r variant.Value) (variant.Value, error)
	un   func(v variant.Value) (variant.Value, error)
	// Evaluation state; compiled nodes serve one DAG on one goroutine.
	seq int64 // opSeq: the next value
}

// exprInst is one scoped instance of a node: its operands, its register, and
// the run-time state that must not be shared between uses.
type exprInst struct {
	node  int32
	slot  int32
	end   int32   // last instance index this one spans (its own unless lazy)
	args  []int32 // operand instances, parallel to the node's kids
	stamp uint64  // epoch of the typed result's conversion into the variant register
	x     *instScratch
}

// instScratch is what lazy operators (and a comparison over a dictionary
// column) keep between batches so that evaluating them allocates nothing.
type instScratch struct {
	blocks [][]int32       // lazy operands' code; blocks[k] computes args[k+1]
	sels   [2][]int        // CASE: remaining rows, alternating per arm
	selM   []int           // rows needing the lazy operand / matching the arm
	sub    vector.Batch    // header of the restricted view the blocks run under
	dict   vector.DictMemo // comparison: its result per dictionary entry
}

// exprStats sizes a compiled DAG: AST nodes compiled, instances evaluated
// per batch (nodes > distinct means sharing fired), and register slots.
type exprStats struct{ Nodes, Distinct, Slots int }

func (s exprStats) String() string {
	return fmt.Sprintf("exprs[nodes=%d distinct=%d slots=%d]", s.Nodes, s.Distinct, s.Slots)
}

func (s *exprStats) add(o exprStats) {
	s.Nodes += o.Nodes
	s.Distinct += o.Distinct
	s.Slots += o.Slots
}

func (d *exprDAG) stats() exprStats {
	return exprStats{Nodes: d.astNodes, Distinct: len(d.insts), Slots: d.slots}
}

// compileVec compiles a single expression; see compileVecs.
func compileVec(ctx *execContext, n Node, sc *Schema, e sqlast.Expr) (*exprDAG, error) {
	return compileVecs(ctx, n, sc, []sqlast.Expr{e})
}

// compileVecs binds a list of SQL expressions to a schema as one DAG for
// plan node n's operator. ctx (nil-safe) turns typed registers off with
// typed columns and receives the typed-kernel vs variant-fallback counters,
// as does n's record.
func compileVecs(ctx *execContext, n Node, sc *Schema, exprs []sqlast.Expr) (*exprDAG, error) {
	c := dagCompilers.Get().(*dagCompiler)
	defer c.release()
	c.sc, c.d = sc, &exprDAG{ctx: ctx, typed: ctx == nil || !ctx.typedOff, roots: make([]int32, len(exprs))}
	if ctx != nil && n != nil {
		c.d.st = ctx.statsFor(n)
	}
	for i, e := range exprs {
		id, err := c.node(e)
		if err != nil {
			return nil, err
		}
		c.d.roots[i] = id // the node for now; its instance after emit
	}
	c.d.nodes, c.d.astNodes = c.nodes, c.visited
	c.emitAll()
	return c.d, nil
}

// dagCompiler is the scratch state of one compilation. A plan compiles dozens
// of DAGs, most of them a handful of nodes, so the compilers are pooled: what
// a DAG costs to build is then its own nodes and instances.
type dagCompiler struct {
	sc      *Schema
	d       *exprDAG
	nodes   []*exprNode
	visited int // AST nodes compiled
	// Pass 1. table is an open-addressing set of node ids keyed by structure
	// (-1 is empty); stack holds the kids of the calls and CASEs being compiled.
	table []int32
	stack []int32
	// Pass 2. instOf maps a node to its instance visible from the current
	// scope; leaving a scope undoes the entries it added (trail), which is
	// what keeps a block's instances from being read where the block may not
	// have run.
	instOf, trail, lastUse []int32
	free, open             []int32
	cur                    *[]int32 // code list of the scope being emitted
	// ints backs the kids and operand lists of the DAG being built and chunk
	// its nodes: carved out of growing chunks, not allocated one by one.
	ints  []int32
	chunk []exprNode
}

var dagCompilers = sync.Pool{New: func() any { return new(dagCompiler) }}

func (c *dagCompiler) release() {
	c.sc, c.d, c.nodes, c.visited, c.cur, c.ints, c.chunk = nil, nil, nil, 0, nil, nil, nil
	c.table, c.stack, c.instOf, c.trail, c.lastUse = c.table[:0], c.stack[:0], c.instOf[:0], c.trail[:0], c.lastUse[:0]
	c.free, c.open = c.free[:0], c.open[:0]
	dagCompilers.Put(c)
}

// carve returns k fresh int32s. A full chunk is left to the lists already
// carved from it and a new one started.
func (c *dagCompiler) carve(k int) []int32 {
	if len(c.ints)+k > cap(c.ints) {
		c.ints = make([]int32, 0, 2*cap(c.ints)+k+8)
	}
	lo := len(c.ints)
	c.ints = c.ints[:lo+k]
	return c.ints[lo : lo+k : lo+k]
}

// --- pass 1: structural hash-consing ----------------------------------------

// hash mixes everything same compares: operator, attributes (n.name carries
// the function, operator spelling, field key or cast type), kids, and a
// literal's kind and exact scalar value.
func (n *exprNode) hash(kids []int32) uint64 {
	const m = 0x9E3779B97F4A7C15
	h := (uint64(n.op)<<33 ^ uint64(uint32(n.col))<<1) * m
	if n.flag {
		h ^= 1
	}
	for _, k := range kids {
		h = (h ^ uint64(k)) * m
	}
	name := n.name
	if n.op == opLit {
		h = (h ^ uint64(n.lit.Kind())<<56 ^ litBits(n.lit)) * m
		name = n.lit.AsString()
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * m
	}
	return h ^ h>>31
}

func (n *exprNode) same(o *exprNode, kids []int32) bool {
	if n.op != o.op || n.flag != o.flag || n.col != o.col || n.name != o.name || !slices.Equal(n.kids, kids) {
		return false
	}
	return n.op != opLit || n.lit.Kind() == o.lit.Kind() && litBits(n.lit) == litBits(o.lit) && n.lit.AsString() == o.lit.AsString()
}

// litBits is a scalar literal's exact value: 0.0 and -0.0, 1 and 1.0 differ.
func litBits(v variant.Value) uint64 {
	switch v.Kind() {
	case variant.KindBool, variant.KindInt:
		return uint64(v.AsInt())
	case variant.KindFloat:
		return math.Float64bits(v.AsFloat())
	}
	return 0
}

// unshared nodes are never interned: SEQ4/SEQ8 (each occurrence is its own
// counter) and array or object literals (not worth comparing).
func (n *exprNode) unshared() bool {
	k := n.lit.Kind()
	return n.op == opSeq || k == variant.KindArray || k == variant.KindObject
}

// intern returns the id of the node structurally equal to n over kids, adding
// it when new.
func (c *dagCompiler) intern(n exprNode, kids ...int32) int32 {
	nodes := c.nodes
	slot := -1
	if !n.unshared() {
		if 2*len(nodes) >= len(c.table) {
			size := max(16, 4*len(nodes))
			c.table = slices.Grow(c.table[:0], size)[:size]
			for i := range c.table {
				c.table[i] = -1
			}
			for id, old := range nodes {
				if !old.unshared() {
					c.table[c.probe(old, old.kids)] = int32(id)
				}
			}
		}
		if slot = c.probe(&n, kids); c.table[slot] >= 0 {
			return c.table[slot]
		}
	}
	if len(c.chunk) == cap(c.chunk) { // nodes are allocated in growing chunks, not one by one
		c.chunk = make([]exprNode, 0, min(max(1, len(nodes)), 32))
	}
	c.chunk = append(c.chunk, n)
	p := &c.chunk[len(c.chunk)-1]
	p.kids = c.carve(len(kids))
	copy(p.kids, kids)
	if nodes == nil {
		nodes = make([]*exprNode, 0, 4)
	}
	c.nodes = append(nodes, p)
	if slot >= 0 {
		c.table[slot] = int32(len(nodes))
	}
	return int32(len(nodes))
}

// probe returns the table slot holding the node equal to n, or the empty slot
// where it belongs.
func (c *dagCompiler) probe(n *exprNode, kids []int32) int {
	i := int(n.hash(kids) % uint64(len(c.table)))
	for c.table[i] >= 0 && !c.nodes[c.table[i]].same(n, kids) {
		if i++; i == len(c.table) {
			i = 0
		}
	}
	return i
}

func (c *dagCompiler) node(e sqlast.Expr) (int32, error) {
	c.visited++
	switch x := e.(type) {
	case *sqlast.Lit:
		return c.intern(exprNode{op: opLit, lit: x.Value}), nil
	case *sqlast.ColRef:
		name := x.QualifiedName()
		i, ok := c.sc.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("engine: unknown column %q (have %v)", name, c.sc.Names)
		}
		return c.intern(exprNode{op: opCol, col: int32(i)}), nil
	case *sqlast.Star:
		return 0, fmt.Errorf("engine: '*' is only valid in COUNT(*) or a select list")
	case *sqlast.FuncCall:
		return c.funcCall(x)
	case *sqlast.Binary:
		l, err := c.node(x.Left)
		if err != nil {
			return 0, err
		}
		r, err := c.node(x.Right)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "AND":
			return c.intern(exprNode{op: opAnd}, l, r), nil
		case "OR":
			return c.intern(exprNode{op: opOr}, l, r), nil
		}
		n := exprNode{op: opBin, name: x.Op, kern: binKerns[x.Op]}
		if !isCmp(n.kern) {
			if n.bin, err = scalarBinOp(x.Op); err != nil {
				return 0, err
			}
		}
		return c.intern(n, l, r), nil
	case *sqlast.Unary:
		n := exprNode{op: opUnary, name: x.Op, kern: unaryKerns[x.Op]}
		if n.kern == kNeg {
			n.un = variant.Neg
		}
		id, err := c.unary(x.Operand, n)
		if err == nil && n.kern == 0 {
			return 0, fmt.Errorf("engine: unknown unary operator %q", x.Op)
		}
		return id, err
	case *sqlast.IsNull:
		return c.unary(x.Operand, exprNode{op: opIsNull, flag: x.Negate})
	case *sqlast.CaseWhen:
		arms := make([]sqlast.Expr, 0, 2*len(x.Whens)+1)
		for _, w := range x.Whens {
			arms = append(arms, w.Cond, w.Result)
		}
		if x.Else != nil {
			arms = append(arms, x.Else)
		}
		return c.nary(arms, exprNode{op: opCase, flag: x.Else != nil})
	case *sqlast.Cast:
		typ := strings.ToUpper(x.Type)
		return c.unary(x.Operand, exprNode{op: opUnary, name: "::" + typ, un: func(v variant.Value) (variant.Value, error) {
			if v.IsNull() {
				return v, nil
			}
			return castValue(typ, v)
		}})
	}
	return 0, fmt.Errorf("engine: cannot compile expression %T", e)
}

// scalarBinOp returns the elementwise variant kernel of an arithmetic or
// concatenation operator; comparisons are execCompare's.
func scalarBinOp(op string) (func(l, r variant.Value) (variant.Value, error), error) {
	switch op {
	case "+":
		return variant.Add, nil
	case "-":
		return variant.Sub, nil
	case "*":
		return variant.Mul, nil
	case "/":
		return variant.Div, nil
	case "%":
		return variant.Mod, nil
	case "||":
		return func(l, r variant.Value) (variant.Value, error) {
			if l.IsNull() || r.IsNull() {
				return variant.Null, nil
			}
			ls, rs := l, r
			if ls.Kind() != variant.KindString {
				ls = variant.String(ls.JSON())
			}
			if rs.Kind() != variant.KindString {
				rs = variant.String(rs.JSON())
			}
			return variant.String(ls.AsString() + rs.AsString()), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown binary operator %q", op)
}

// castValue applies a CAST to a non-NULL value; typ is already upper-cased.
func castValue(typ string, v variant.Value) (variant.Value, error) {
	switch typ {
	case "INT", "INTEGER", "NUMBER", "BIGINT":
		i, err := variant.ToInt(v)
		if err != nil {
			return variant.Null, err
		}
		return variant.Int(i), nil
	case "DOUBLE", "FLOAT", "REAL":
		f, err := variant.ToFloat(v)
		if err != nil {
			return variant.Null, err
		}
		return variant.Float(f), nil
	case "VARCHAR", "STRING", "TEXT":
		if v.Kind() == variant.KindString {
			return v, nil
		}
		return variant.String(v.JSON()), nil
	case "BOOLEAN":
		return variant.Bool(truthySQL(v)), nil
	case "VARIANT":
		return v, nil
	}
	return variant.Null, fmt.Errorf("engine: unsupported cast type %q", typ)
}

// truthySQL reports SQL boolean truth: only boolean TRUE is true; numbers
// are true when non-zero (Snowflake-style implicit boolean coercion).
func truthySQL(v variant.Value) bool {
	switch v.Kind() {
	case variant.KindBool:
		return v.AsBool()
	case variant.KindInt, variant.KindFloat:
		return v.AsFloat() != 0
	}
	return false
}

// unary interns the elementwise operator n over operand.
func (c *dagCompiler) unary(operand sqlast.Expr, n exprNode) (int32, error) {
	id, err := c.node(operand)
	if err != nil {
		return 0, err
	}
	return c.intern(n, id), nil
}

func (c *dagCompiler) funcCall(x *sqlast.FuncCall) (int32, error) {
	name := strings.ToUpper(x.Name)
	if isAggregateName(name) {
		return 0, fmt.Errorf("engine: aggregate %s outside GROUP BY context", name)
	}
	if len(x.WithinOrder) > 0 {
		return 0, fmt.Errorf("engine: WITHIN GROUP on %s, which is not an aggregate", name)
	}
	if isRowCounter(name) {
		// Monotone per-operator sequence (row-ID injection, §IV-B). The
		// counter advances in active-row order, so with the ordered scan
		// merge the assigned IDs are the sequential row order's.
		return c.intern(exprNode{op: opSeq}), nil
	}
	fn, ok := scalarFuncs[name]
	if !ok {
		return 0, fmt.Errorf("engine: unknown function %s", name)
	}
	return c.nary(x.Args, exprNode{op: opFunc, name: name, fn: fn, kern: typedFuncIdx[name]})
}

// nary interns n over the compiled operands; GET and GET_PATH with a literal
// string key become field accesses, one per path step, with the key resolved
// here.
func (c *dagCompiler) nary(operands []sqlast.Expr, n exprNode) (int32, error) {
	base := len(c.stack)
	for _, a := range operands {
		id, err := c.node(a)
		if err != nil {
			return 0, err
		}
		c.stack = append(c.stack, id)
	}
	kids := c.stack[base:]
	c.stack = c.stack[:base]
	if (n.name == "GET" || n.name == "GET_PATH") && len(kids) == 2 {
		if key := c.nodes[kids[1]]; key.op == opLit && key.lit.Kind() == variant.KindString {
			id, path := kids[0], []string{key.lit.AsString()}
			if n.name == "GET_PATH" {
				path = strings.Split(path[0], ".")
			}
			for _, field := range path {
				id = c.intern(exprNode{op: opField, name: field}, id)
			}
			return id, nil
		}
	}
	return c.intern(n, kids...), nil
}

// --- pass 2: scoped instances, liveness, register slots ---------------------

const pinned = math.MaxInt32

// emitAll instantiates the root nodes in evaluation order, then packs the
// instances onto registers.
func (c *dagCompiler) emitAll() {
	d := c.d
	c.instOf = slices.Grow(c.instOf, len(d.nodes))[:len(d.nodes)]
	for i := range c.instOf {
		c.instOf[i] = -1
	}
	d.insts, d.code = make([]exprInst, 0, len(d.nodes)), make([]int32, 0, len(d.nodes))
	c.cur = &d.code
	for i, node := range d.roots {
		d.roots[i] = c.emit(node)
	}
	for _, r := range d.roots {
		c.lastUse[r] = pinned
	}
	c.assignSlots()
}

func (c *dagCompiler) newInst(node int32) int32 {
	id := int32(len(c.d.insts))
	c.d.insts = append(c.d.insts, exprInst{node: node, slot: -1, end: id})
	c.lastUse = append(c.lastUse, id)
	return id
}

func (c *dagCompiler) emit(node int32) int32 {
	if in := c.instOf[node]; in >= 0 {
		return in
	}
	d := c.d
	n := d.nodes[node]
	var id int32
	switch n.op {
	case opLit, opCol:
		// Selection-independent and infallible: one instance serves every
		// scope, so the entry is never undone.
		id = c.newInst(node)
		c.instOf[node] = id
		return id
	case opAnd, opOr:
		l := c.emit(n.kids[0])
		id = c.newInst(node)
		*c.cur = append(*c.cur, id)
		args := c.carve(2)
		args[0] = l
		var code []int32
		args[1], code = c.block(n.kids[1])
		d.insts[id].args, d.insts[id].x = args, &instScratch{blocks: [][]int32{code}}
	case opCase:
		args := c.carve(len(n.kids))
		args[0] = c.emit(n.kids[0]) // the first condition sees the CASE's own selection
		id = c.newInst(node)
		*c.cur = append(*c.cur, id)
		blocks := make([][]int32, len(n.kids)-1)
		for k := 1; k < len(n.kids); k++ {
			args[k], blocks[k-1] = c.block(n.kids[k])
		}
		d.insts[id].args, d.insts[id].x = args, &instScratch{blocks: blocks}
	default:
		args := c.carve(len(n.kids))
		for k, kid := range n.kids {
			args[k] = c.emit(kid)
		}
		id = c.newInst(node)
		*c.cur = append(*c.cur, id)
		d.insts[id].args = args
	}
	in := &d.insts[id]
	in.end = int32(len(d.insts)) - 1
	for _, a := range in.args {
		c.lastUse[a] = max(c.lastUse[a], in.end)
	}
	c.instOf[node] = id
	c.trail = append(c.trail, node)
	return id
}

// block emits node in a fresh scope, returning its instance and the scope's
// code. The instance may belong to an enclosing scope (empty code).
func (c *dagCompiler) block(node int32) (int32, []int32) {
	var code []int32
	outer, mark := c.cur, len(c.trail)
	c.cur = &code
	id := c.emit(node)
	c.cur = outer
	for _, n := range c.trail[mark:] {
		c.instOf[n] = -1
	}
	c.trail = c.trail[:mark]
	return id, code
}

// assignSlots is a linear scan over the instance order. An instance's
// register is taken at its index — for a lazy operator that is before its
// blocks run, since it writes short-circuited rows first — and returned once
// the last instance using it has ended; roots keep theirs, and a literal's is
// its alone from the start, since it is filled once and only ever read.
func (c *dagCompiler) assignSlots() {
	d := c.d
	release := func(user *exprInst) {
		for _, a := range user.args {
			if op := d.nodes[d.insts[a].node].op; c.lastUse[a] == user.end && op != opLit {
				c.free = append(c.free, d.insts[a].slot)
				c.lastUse[a] = pinned // an operand used twice is released once
			}
		}
	}
	for i := range d.insts {
		in := &d.insts[i]
		if len(c.free) > 0 && d.nodes[in.node].op != opLit {
			in.slot, c.free = c.free[len(c.free)-1], c.free[:len(c.free)-1]
		} else {
			in.slot = int32(d.slots)
			d.slots++
		}
		if in.end == int32(i) {
			release(in)
		} else {
			c.open = append(c.open, int32(i))
		}
		for len(c.open) > 0 && d.insts[c.open[len(c.open)-1]].end == int32(i) {
			release(&d.insts[c.open[len(c.open)-1]])
			c.open = c.open[:len(c.open)-1]
		}
	}
}

// --- evaluation -------------------------------------------------------------

// eval evaluates every compiled expression over b and returns one vector per
// expression, aligned with the batch's physical rows and defined at its
// active positions only. The vectors are registers (or columns of b): valid
// until the next eval, never to be mutated by the caller. A typed result
// converts to variants here.
func (d *exprDAG) eval(b *vector.Batch) ([][]variant.Value, error) {
	defer d.flush()
	if err := d.begin(b); err != nil {
		return nil, err
	}
	for i, r := range d.roots {
		d.outs[i] = d.load(b, r)
	}
	return d.outs, nil
}

// project evaluates the DAG as a select list into out, a header the caller
// recycles: a computed column is its pinned root register — the typed view
// when the result is typed, the variant vector otherwise — plain column
// references pass the input's representation through (variant vector or
// typed view, unmaterialized), and the selection carries over since every
// vector is aligned with the input's physical rows.
func (d *exprDAG) project(b *vector.Batch, out *vector.Batch) error {
	defer d.flush()
	if err := d.begin(b); err != nil {
		return err
	}
	out.Cols, out.Sel = d.outs, b.Sel
	for i := range out.Typed {
		out.Typed[i] = nil
	}
	for i, r := range d.roots {
		var tc *vector.TypedCol
		switch n := d.nodes[d.insts[r].node]; {
		case n.op == opCol:
			if d.outs[i] = b.Cols[n.col]; d.outs[i] == nil {
				tc = b.TypedCol(int(n.col))
			}
		case d.forms.Typed[r] != nil:
			d.outs[i], tc = nil, d.forms.Typed[r]
		default:
			d.outs[i] = d.load(b, r)
		}
		if tc != nil {
			if out.Typed == nil {
				out.Typed = make([]*vector.TypedCol, len(d.roots))
			}
			out.Typed[i] = tc
		}
	}
	return nil
}

// evalTyped evaluates every root over b into out as project does — a typed
// result stays typed, to be read in place — and counts each typed root
// vector as a typed read: the evaluation of consumers that read their
// inputs a row at a time, the join's keys and the aggregate's inputs, which
// would read a converted vector once.
func (d *exprDAG) evalTyped(b *vector.Batch, out *vector.Batch) error {
	if err := d.project(b, out); err != nil {
		return err
	}
	for _, tc := range out.Typed {
		if tc != nil {
			d.nTyped++
		}
	}
	d.flush()
	return nil
}

// selectTrue evaluates the DAG's one expression, a condition, over b and
// appends to sel the active rows where it is SQL-true — straight off a
// typed boolean result when it has one.
func (d *exprDAG) selectTrue(b *vector.Batch, sel []int) ([]int, error) {
	defer d.flush()
	if err := d.begin(b); err != nil {
		return nil, err
	}
	sel, d.rest = d.splitTruth(b, d.roots[0], true, d.active(b), sel, d.rest[:0])
	return sel, nil
}

// flush adds the typed reads and conversions of the call that is ending to
// the query's and the operator's counters.
func (d *exprDAG) flush() {
	if d.nTyped > 0 {
		d.ctx.countTypedCols(d.nTyped)
		if d.st != nil {
			d.st.typed.Add(int64(d.nTyped))
		}
	}
	if d.nFallback > 0 {
		d.ctx.countFallbackCols(d.nFallback)
		if d.st != nil {
			d.st.fallback.Add(int64(d.nFallback))
		}
	}
	d.nTyped, d.nFallback = 0, 0
}

// counter returns the SEQ8()/SEQ4() node compiled expression i evaluates,
// bare or plus an integer literal (isRowIDExpr); nil for anything else. Its
// seq is the number of IDs it has issued, which the exchange resets and reads
// per morsel.
func (d *exprDAG) counter(i int) *exprNode {
	n := d.nodes[d.insts[d.roots[i]].node]
	if n.op == opBin {
		for _, k := range n.kids {
			if d.nodes[k].op == opSeq {
				return d.nodes[k]
			}
		}
	}
	if n.op == opSeq {
		return n
	}
	return nil
}

// begin evaluates every root-scope instance over b. A column reference's
// typed form is the batch's typed view of the column.
func (d *exprDAG) begin(b *vector.Batch) error {
	if d.regs == nil {
		d.regs, d.outs = make([][]variant.Value, d.slots), make([][]variant.Value, len(d.roots))
		d.tregs, d.forms.Typed = make([]vector.TypedCol, d.slots), make([]*vector.TypedCol, len(d.insts))
	}
	d.epoch++
	d.n = b.Len()
	poisoned := vector.Poisoned()
	for i := range d.insts {
		in := &d.insts[i]
		n := d.nodes[in.node]
		d.forms.Typed[i] = nil
		if n.op == opCol && d.typed {
			d.forms.Typed[i] = b.TypedCol(int(n.col))
		}
		if poisoned && n.op != opLit {
			vector.Poison(d.regs[in.slot])
			vector.PoisonTyped(&d.tregs[in.slot])
		}
	}
	return d.run(d.code, b)
}

// active is the active rows of b, whose selection may be nil.
func (d *exprDAG) active(b *vector.Batch) []int {
	if b.Sel != nil {
		return b.Sel
	}
	return dense(d.n)
}

// denseSel is 0, 1, 2, ...: the selection kernels range over when a batch has
// none. One immutable table serves every DAG; a batch longer than it swaps in
// a longer one.
var denseSel atomic.Pointer[[]int]

func dense(n int) []int {
	if p := denseSel.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	sel := make([]int, max(n, 4*vector.DefaultBatchSize))
	for i := range sel {
		sel[i] = i
	}
	denseSel.Store(&sel)
	return sel[:n]
}

// reg returns inst's register sized to the batch, allocating or growing it
// on first need.
func (d *exprDAG) reg(in *exprInst) []variant.Value {
	r := d.regs[in.slot]
	if cap(r) < d.n {
		r = make([]variant.Value, d.n)
	}
	d.regs[in.slot] = r[:d.n]
	return d.regs[in.slot]
}

// load returns an evaluated instance's variant vector. Columns resolve here,
// on demand, and a typed result — a column's typed view, a typed register —
// converts into the instance's variant register at most once per batch, so
// an operand only typed kernels read never converts. A literal fills its
// register once; kernels read literals through arg, as scalars, instead.
func (d *exprDAG) load(b *vector.Batch, id int32) []variant.Value {
	in := &d.insts[id]
	n := d.nodes[in.node]
	tc := d.forms.Typed[id]
	switch n.op {
	case opCol:
		if col := b.Cols[n.col]; col != nil {
			return col
		}
		if tc = b.TypedCol(int(n.col)); tc == nil {
			return nil
		}
	case opLit:
		if r := d.regs[in.slot]; len(r) < d.n {
			r = make([]variant.Value, d.n)
			for i := range r {
				r[i] = n.lit
			}
			d.regs[in.slot] = r
		}
		return d.regs[in.slot][:d.n]
	}
	if tc != nil && in.stamp != d.epoch {
		// The whole register converts, whatever b's selection: a later load
		// from an enclosing scope reads more rows than a block's.
		in.stamp = d.epoch
		d.nFallback++
		d.regs[in.slot] = tc.Materialize(d.regs[in.slot][:0])
	}
	return d.regs[in.slot]
}

// arg returns an evaluated operand for a variant kernel: its vector, or nil
// and the value of a literal.
func (d *exprDAG) arg(b *vector.Batch, id int32) ([]variant.Value, variant.Value) {
	if n := d.nodes[d.insts[id].node]; n.op == opLit {
		return nil, n.lit
	}
	return d.load(b, id), variant.Null
}

// at is row i of an operand arg returned.
func at(vals []variant.Value, lit variant.Value, i int) variant.Value {
	if vals != nil {
		return vals[i]
	}
	return lit
}

func (d *exprDAG) run(code []int32, b *vector.Batch) error {
	for _, id := range code {
		if err := d.exec(id, b); err != nil {
			return err
		}
	}
	return nil
}

// restrict points x's recycled sub-batch header at b restricted to sel.
func (x *instScratch) restrict(b *vector.Batch, sel []int) *vector.Batch {
	x.sub = vector.Batch{Cols: b.Cols, Sel: sel, Typed: b.Typed}
	return &x.sub
}

// exec evaluates instance id over b's active rows into its register, typed
// or variant (exprt.go).
func (d *exprDAG) exec(id int32, b *vector.Batch) error {
	in := &d.insts[id]
	n := d.nodes[in.node]
	sel := d.active(b)
	switch n.op {
	case opSeq:
		out := d.reg(in)
		for _, i := range sel {
			out[i] = variant.Int(n.seq)
			n.seq++
		}
	case opField:
		src, lit := d.arg(b, in.args[0])
		d.extract(id, sel, func(i int) variant.Value { return at(src, lit, i).Field(n.name) })
	case opFunc:
		if n.kern > 0 && d.typed {
			if done, err := d.execTypedFunc(id, n, b, sel); done || err != nil {
				return err
			}
		}
		return d.execFunc(in, n, b, sel)
	case opBin:
		if isCmp(n.kern) {
			d.execCompare(id, n.kern, b, sel)
			return nil
		}
		if n.kern > 0 && d.typed {
			if done, err := d.typedArith(id, n.kern, nil, sel); done || err != nil {
				return err
			}
		}
		out := d.reg(in)
		l, ll := d.arg(b, in.args[0])
		r, rl := d.arg(b, in.args[1])
		for _, i := range sel {
			v, err := n.bin(at(l, ll, i), at(r, rl, i))
			if err != nil {
				return err
			}
			out[i] = v
		}
	case opUnary:
		if n.kern == kNot {
			d.execNot(id, b, sel)
			return nil
		}
		if n.kern == kNeg && d.typedNeg(id, sel, d.forms.Typed[in.args[0]]) {
			return nil
		}
		out := d.reg(in)
		src, lit := d.arg(b, in.args[0])
		for _, i := range sel {
			v, err := n.un(at(src, lit, i))
			if err != nil {
				return err
			}
			out[i] = v
		}
	case opIsNull:
		d.execIsNull(id, n.flag, b, sel)
	case opAnd, opOr:
		return d.execLogical(id, n.op == opOr, b, sel)
	case opCase:
		return d.execCase(in, n.flag, b, sel, d.reg(in))
	}
	return nil
}

// execFunc runs a function's generic kernel, one row's arguments at a time.
func (d *exprDAG) execFunc(in *exprInst, n *exprNode, b *vector.Batch, sel []int) error {
	out := d.reg(in)
	argv, argBuf := d.argv[:0], d.argBuf[:0]
	for _, a := range in.args {
		vals, lit := d.arg(b, a)
		argv, argBuf = append(argv, vals), append(argBuf, lit)
	}
	d.argv, d.argBuf = argv, argBuf
	for _, i := range sel {
		for k, col := range argv {
			if col != nil {
				argBuf[k] = col[i]
			}
		}
		v, err := n.fn(argBuf)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// execLogical evaluates AND (isOr false) or OR, three-valued. Rows the left
// side decides — FALSE for AND, TRUE for OR — never evaluate the right side,
// as SQL short-circuiting requires; the rest run the right block under the
// restricted selection.
func (d *exprDAG) execLogical(id int32, isOr bool, b *vector.Batch, sel []int) error {
	in := &d.insts[id]
	w := d.boolOut(id)
	x := in.x
	decided, need := d.splitTruth(b, in.args[0], isOr, sel, x.sels[0][:0], x.selM[:0])
	x.sels[0], x.selM = decided, need
	for _, i := range decided {
		w.set(i, isOr)
	}
	if len(need) == 0 {
		return nil
	}
	sb := x.restrict(b, need)
	if err := d.run(x.blocks[0], sb); err != nil {
		return err
	}
	lc, rc := d.forms.Typed[in.args[0]], d.forms.Typed[in.args[1]]
	var l truthVec
	if lc == nil {
		l.vals, l.lit = d.arg(b, in.args[0])
	}
	r := d.truthOf(sb, in.args[1], rc)
	for _, i := range need {
		rv, rnull := truthAt(rc, &r, i)
		_, lnull := truthAt(lc, &l, i)
		switch {
		case !rnull && rv == isOr:
			w.set(i, isOr)
		case lnull || rnull:
			w.null(i)
		default:
			w.set(i, !isOr)
		}
	}
	return nil
}

// execCase evaluates arms on progressively restricted selections, so a row
// only ever evaluates the conditions up to its first match and only the
// matching arm's result — lazy CASE semantics. Its result is a variant.
func (d *exprDAG) execCase(in *exprInst, hasElse bool, b *vector.Batch, sel []int, out []variant.Value) error {
	// branch runs the block computing args[k] under sel, returning the
	// restricted view it ran over.
	x := in.x
	branch := func(k int, sel []int) (*vector.Batch, error) {
		sb := x.restrict(b, sel)
		return sb, d.run(x.blocks[k-1], sb)
	}
	arms := len(in.args) / 2
	remaining := sel
	for a := 0; a < arms && len(remaining) > 0; a++ {
		cb := b
		if a > 0 {
			var err error
			if cb, err = branch(2*a, remaining); err != nil {
				return err
			}
		}
		matched, rest := d.splitTruth(cb, in.args[2*a], true, remaining, x.selM[:0], x.sels[a&1][:0])
		x.selM, x.sels[a&1] = matched, rest
		if len(matched) > 0 {
			rb, err := branch(2*a+1, matched)
			if err != nil {
				return err
			}
			vals, lit := d.arg(rb, in.args[2*a+1])
			for _, i := range matched {
				out[i] = at(vals, lit, i)
			}
		}
		remaining = rest
	}
	if len(remaining) == 0 {
		return nil
	}
	if !hasElse {
		for _, i := range remaining {
			out[i] = variant.Null
		}
		return nil
	}
	eb, err := branch(2*arms, remaining)
	if err != nil {
		return err
	}
	vals, lit := d.arg(eb, in.args[2*arms])
	for _, i := range remaining {
		out[i] = at(vals, lit, i)
	}
	return nil
}

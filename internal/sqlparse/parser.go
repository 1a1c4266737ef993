package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// Parse parses one SQL query (SELECT possibly combined with UNION ALL).
func Parse(src string) (sqlast.Query, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, p.errf("unexpected %q after end of query", p.peek().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// isKw reports whether the current token is the given keyword
// (case-insensitive bare identifier).
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) isKwAt(n int, kw string) bool {
	t := p.peekAt(n)
	return t.kind == tIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

// parseQuery parses select (UNION ALL select)* with optional parenthesized
// operands, as emitted by the renderer.
func (p *parser) parseQuery() (sqlast.Query, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.isKw("union") {
		p.advance()
		if err := p.expectKw("all"); err != nil {
			return nil, err
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &sqlast.SetOp{Op: "UNION ALL", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseQueryTerm() (sqlast.Query, error) {
	if p.isPunct("(") {
		p.advance()
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*sqlast.Select, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	s := &sqlast.Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKw("from") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.isKw("group") {
		p.advance()
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.isKw("order") {
		p.advance()
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		s.OrderBy = items
	}
	if p.acceptKw("limit") {
		t := p.peek()
		if t.kind != tNumber {
			return nil, p.errf("expected LIMIT count, found %q", t.text)
		}
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = &n
	}
	return s, nil
}

func (p *parser) parseOrderItems() ([]sqlast.OrderItem, error) {
	var items []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := sqlast.OrderItem{Expr: e}
		if p.acceptKw("desc") {
			item.Desc = true
		} else {
			p.acceptKw("asc")
		}
		items = append(items, item)
		if p.acceptPunct(",") {
			continue
		}
		return items, nil
	}
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.isPunct("*") {
		p.advance()
		return sqlast.SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKw("as") {
		alias, err := p.parseIdent()
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tQuotedIdent {
		item.Alias = p.advance().text
	}
	// A parenthesized star is an expression, but `*` renders bare, where an
	// alias after it would not parse back.
	if _, star := e.(*sqlast.Star); star && item.Alias != "" {
		return sqlast.SelectItem{}, p.errf("a star cannot take an alias")
	}
	return item, nil
}

// fromTerminators are keywords that end a from-clause item list.
var fromTerminators = []string{"where", "group", "order", "limit", "having", "union"}

func (p *parser) atFromEnd() bool {
	t := p.peek()
	if t.kind == tEOF || t.kind == tPunct && t.text == ")" {
		return true
	}
	for _, kw := range fromTerminators {
		if p.isKw(kw) {
			return true
		}
	}
	return false
}

func (p *parser) parseFrom() (sqlast.FromItem, error) {
	left, err := p.parseFromPrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct(","):
			// Only `, LATERAL FLATTEN` comma-joins are supported; plain
			// comma cross joins must be written as CROSS JOIN.
			if !p.isKwAt(1, "lateral") {
				return left, nil
			}
			p.advance() // ,
			p.advance() // LATERAL
			fl, err := p.parseFlatten(left)
			if err != nil {
				return nil, err
			}
			left = fl
		case p.isKw("cross"):
			p.advance()
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			right, err := p.parseFromPrimary()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Join{Kind: "CROSS", Left: left, Right: right}
		case p.isKw("left"):
			p.advance()
			p.acceptKw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			right, err := p.parseFromPrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Join{Kind: "LEFT OUTER", Left: left, Right: right, On: on}
		case p.isKw("inner") || p.isKw("join"):
			p.acceptKw("inner")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			right, err := p.parseFromPrimary()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Join{Kind: "INNER", Left: left, Right: right, On: on}
		default:
			if !p.atFromEnd() && p.isKw("lateral") {
				p.advance()
				fl, err := p.parseFlatten(left)
				if err != nil {
					return nil, err
				}
				left = fl
				continue
			}
			return left, nil
		}
	}
}

func (p *parser) parseFlatten(src sqlast.FromItem) (sqlast.FromItem, error) {
	if err := p.expectKw("flatten"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if err := p.expectKw("input"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("=>"); err != nil {
		return nil, err
	}
	input, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	outer := false
	if p.acceptPunct(",") {
		if err := p.expectKw("outer"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("=>"); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKw("true"):
			outer = true
		case p.acceptKw("false"):
		default:
			return nil, p.errf("expected TRUE or FALSE for OUTER")
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.acceptKw("as")
	alias, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &sqlast.Flatten{Source: src, Input: input, Outer: outer, Alias: alias}, nil
}

func (p *parser) parseFromPrimary() (sqlast.FromItem, error) {
	if p.isPunct("(") {
		p.advance()
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ref := &sqlast.SubqueryRef{Query: q}
		if p.acceptKw("as") {
			alias, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.peek().kind == tQuotedIdent {
			ref.Alias = p.advance().text
		}
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ref := &sqlast.TableRef{Name: name}
	if p.acceptKw("as") {
		alias, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	}
	return ref, nil
}

func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	switch t.kind {
	case tQuotedIdent:
		p.advance()
		return t.text, nil
	case tIdent:
		p.advance()
		return strings.ToLower(t.text), nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

// Expression grammar: OR > AND > NOT > comparison/IS NULL > concat(||) >
// additive > multiplicative > unary > postfix(::) > primary.

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOrExpr() }

func (p *parser) parseOrExpr() (sqlast.Expr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.isKw("or") {
		p.advance()
		right, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAndExpr() (sqlast.Expr, error) {
	left, err := p.parseNotExpr()
	if err != nil {
		return nil, err
	}
	for p.isKw("and") {
		p.advance()
		right, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNotExpr() (sqlast.Expr, error) {
	if p.isKw("not") {
		p.advance()
		operand, err := p.parseNotExpr()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "NOT", Operand: operand}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tPunct {
			switch t.text {
			case "=", "<>", "!=", "<", "<=", ">", ">=":
				p.advance()
				op := t.text
				if op == "!=" {
					op = "<>"
				}
				right, err := p.parseConcat()
				if err != nil {
					return nil, err
				}
				left = &sqlast.Binary{Op: op, Left: left, Right: right}
				continue
			}
		}
		if p.isKw("is") {
			p.advance()
			negate := p.acceptKw("not")
			if err := p.expectKw("null"); err != nil {
				return nil, err
			}
			left = &sqlast.IsNull{Operand: left, Negate: negate}
			continue
		}
		if p.isKw("between") {
			p.advance()
			lo, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Binary{
				Op:    "AND",
				Left:  &sqlast.Binary{Op: ">=", Left: left, Right: lo},
				Right: &sqlast.Binary{Op: "<=", Left: left, Right: hi},
			}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseConcat() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.isPunct("||") {
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isPunct("+"):
			op = "+"
		case p.isPunct("-"):
			op = "-"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isPunct("*"):
			op = "*"
		case p.isPunct("/"):
			op = "/"
		case p.isPunct("%"):
			op = "%"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	if p.isPunct("-") {
		p.advance()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "-", Operand: operand}, nil
	}
	if p.isPunct("+") {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (sqlast.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("::") {
		p.advance()
		t := p.peek()
		if t.kind != tIdent {
			return nil, p.errf("expected type name after '::'")
		}
		p.advance()
		e = &sqlast.Cast{Operand: e, Type: strings.ToUpper(t.text)}
	}
	return e, nil
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return sqlast.L(variant.Float(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return sqlast.L(variant.Int(i)), nil
	case tString:
		p.advance()
		return sqlast.L(variant.String(t.text)), nil
	case tQuotedIdent:
		p.advance()
		// Qualified flatten pseudo-columns: "f".VALUE / "f".INDEX.
		if p.isPunct(".") {
			p.advance()
			ft := p.peek()
			if ft.kind != tIdent {
				return nil, p.errf("expected VALUE or INDEX after qualifier")
			}
			p.advance()
			return &sqlast.ColRef{Table: t.text, Name: strings.ToUpper(ft.text)}, nil
		}
		return sqlast.C(t.text), nil
	case tPunct:
		switch t.text {
		case "(":
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "*":
			p.advance()
			return &sqlast.Star{}, nil
		}
	case tIdent:
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.advance()
			return sqlast.L(variant.Null), nil
		case "TRUE":
			p.advance()
			return sqlast.L(variant.Bool(true)), nil
		case "FALSE":
			p.advance()
			return sqlast.L(variant.Bool(false)), nil
		case "CASE":
			return p.parseCase()
		}
		if p.peekAt(1).kind == tPunct && p.peekAt(1).text == "(" {
			return p.parseFuncCall()
		}
		// Bare identifier column reference (handwritten SQL convenience);
		// normalized to lower case, or qualified pseudo-column.
		p.advance()
		if p.isPunct(".") {
			p.advance()
			ft := p.peek()
			if ft.kind != tIdent {
				return nil, p.errf("expected VALUE or INDEX after qualifier")
			}
			p.advance()
			return &sqlast.ColRef{Table: strings.ToLower(t.text), Name: strings.ToUpper(ft.text)}, nil
		}
		return sqlast.C(strings.ToLower(t.text)), nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseCase() (sqlast.Expr, error) {
	p.advance() // CASE
	c := &sqlast.CaseWhen{}
	for p.isKw("when") {
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.WhenClause{Cond: cond, Result: result})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseFuncCall() (sqlast.Expr, error) {
	name := strings.ToUpper(p.advance().text)
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	call := &sqlast.FuncCall{Name: name}
	if p.acceptKw("distinct") {
		call.Distinct = true
	}
	if !p.isPunct(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.isKw("within") {
		p.advance()
		if err := p.expectKw("group"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectKw("order"); err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		call.WithinOrder = items
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return call, nil
}

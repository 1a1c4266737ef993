package jsoniq

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"jsonpark/internal/obsv"
)

// FunctionDecl is one user-declared function from the query prolog:
//
//	declare function local:name($a, $b) { expr };
type FunctionDecl struct {
	Name   string // without the local: prefix
	Params []string
	Body   Expr
}

// Module is a parsed query: prolog function declarations plus the main
// expression. Inline() folds the declarations away, mirroring RumbleDB's
// function-inlining rewrite (§III-A2 of the paper); recursive functions are
// rejected, the paper's stated limitation (§IV-E).
type Module struct {
	Functions []FunctionDecl
	Body      Expr
}

// ParseModule parses a query with an optional prolog.
func ParseModule(src string) (*Module, error) {
	return ParseModuleTraced(src, nil)
}

// ParseModuleTraced is ParseModule with lex and parse stage spans.
func ParseModuleTraced(src string, sp *obsv.Span) (*Module, error) {
	lsp := sp.Child("jsoniq.lex")
	toks, err := Lex(src)
	lsp.SetAttr("tokens", len(toks))
	lsp.End()
	if err != nil {
		return nil, err
	}
	psp := sp.Child("jsoniq.parse")
	defer psp.End()
	p := &parser{toks: toks}
	m := &Module{}
	for p.isKeyword("declare") {
		decl, err := p.parseFunctionDecl()
		if err != nil {
			return nil, err
		}
		m.Functions = append(m.Functions, decl)
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s after end of query", p.peek().Kind)
	}
	m.Body = e
	return m, nil
}

func (p *parser) parseFunctionDecl() (FunctionDecl, error) {
	p.advance() // declare
	if err := p.expectKeyword("function"); err != nil {
		return FunctionDecl{}, err
	}
	// Accept `local:name` or a bare name.
	nameTok, err := p.expect(TokName)
	if err != nil {
		return FunctionDecl{}, err
	}
	name := nameTok.Text
	if name == "local" && p.peek().Kind == TokColon {
		p.advance()
		nt, err := p.expect(TokName)
		if err != nil {
			return FunctionDecl{}, err
		}
		name = nt.Text
	}
	if _, err := p.expect(TokLParen); err != nil {
		return FunctionDecl{}, err
	}
	var params []string
	if p.peek().Kind != TokRParen {
		for {
			vt, err := p.expect(TokVariable)
			if err != nil {
				return FunctionDecl{}, err
			}
			params = append(params, vt.Text)
			if p.peek().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return FunctionDecl{}, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return FunctionDecl{}, err
	}
	body, err := p.parseExprSingle()
	if err != nil {
		return FunctionDecl{}, err
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return FunctionDecl{}, err
	}
	// Optional trailing ';' is not a token in this lexer; declarations are
	// brace-delimited instead.
	return FunctionDecl{Name: name, Params: params, Body: body}, nil
}

// Inline substitutes every user-function call with its body (arguments
// replacing parameters, bound variables freshly renamed to avoid capture)
// and returns the closed main expression. Recursive or unknown-arity calls
// are errors.
func (m *Module) Inline() (Expr, error) {
	decls := make(map[string]FunctionDecl, len(m.Functions))
	for _, d := range m.Functions {
		if _, dup := decls[d.Name]; dup {
			return nil, fmt.Errorf("jsoniq: function %s declared twice", d.Name)
		}
		decls[d.Name] = d
	}
	in := &inliner{decls: decls}
	out := in.expr(m.Body)
	if in.err != nil {
		return nil, in.err
	}
	return out, nil
}

type inliner struct {
	decls  map[string]FunctionDecl
	fresh  int
	active []string // call stack for recursion detection
	err    error    // the first error; the rewrite stops there
}

// expr inlines every user-function call in e, bottom-up: a call's arguments
// are inlined before its body replaces it.
func (in *inliner) expr(e Expr) Expr {
	if in.err != nil {
		return e
	}
	e = MapChildren(e, in.expr)
	x, ok := e.(*FunctionCall)
	if !ok {
		return e
	}
	decl, isUser := in.decls[x.Name]
	if !isUser || in.err != nil {
		return e
	}
	if slices.Contains(in.active, x.Name) {
		in.err = fmt.Errorf("jsoniq: recursive functions are not supported (cycle through %s)", x.Name)
		return e
	}
	if len(x.Args) != len(decl.Params) {
		in.err = fmt.Errorf("jsoniq: %s expects %d arguments, got %d", x.Name, len(decl.Params), len(x.Args))
		return e
	}
	// Bind the parameters to the (already inlined) argument expressions,
	// then inline the body itself so nested user-function calls resolve too.
	env := make(map[string]Expr, len(x.Args))
	for i, p := range decl.Params {
		env[p] = x.Args[i]
	}
	in.active = append(in.active, x.Name)
	out := in.expr(in.substitute(decl.Body, env))
	in.active = in.active[:len(in.active)-1]
	return out
}

// substitute returns e with each free reference to a name of env replaced
// by a copy of its expression, and every variable a FLWOR inside e binds
// renamed to a fresh name, so a binding of the body can capture no variable
// of an argument. A renamed binding holds for the later clauses and the
// return of its FLWOR only (MapBound): there the old name means the new
// one. Each reference gets its own copy, so no node of the result occurs
// twice and a back-end can tell two uses of a parameter apart by identity.
func (in *inliner) substitute(e Expr, env map[string]Expr) Expr {
	switch x := e.(type) {
	case *VarRef:
		if repl, ok := env[x.Name]; ok {
			return clone(repl)
		}
		return e
	case *FLWOR:
		env = maps.Clone(env)
		out := &FLWOR{pos: x.pos, Clauses: make([]Clause, len(x.Clauses))}
		for i, c := range x.Clauses {
			var renamed [][2]string // {old, new}
			c = MapBound(c, func(v string) string {
				in.fresh++
				nv := v + "#inl" + strconv.Itoa(in.fresh)
				renamed = append(renamed, [2]string{v, nv})
				return nv
			})
			// The clause's expressions, a renamed `group by $k`'s read of
			// $k included, still see the outer bindings.
			out.Clauses[i] = MapClause(c, func(c Expr) Expr { return in.substitute(c, env) })
			for _, r := range renamed {
				env[r[0]] = &VarRef{pos: x.pos, Name: r[1]}
			}
		}
		out.Return = in.substitute(x.Return, env)
		return out
	}
	return MapChildren(e, func(c Expr) Expr { return in.substitute(c, env) })
}

// clone returns a copy of e that shares no expression node with it.
func clone(e Expr) Expr {
	if c := MapChildren(e, clone); c != e {
		return c // every child was copied, so MapChildren copied e
	}
	switch x := e.(type) { // no child to copy through
	case *Literal:
		out := *x
		return &out
	case *VarRef:
		out := *x
		return &out
	case *Collection:
		out := *x
		return &out
	case *ObjectCtor:
		out := *x
		return &out
	case *ArrayCtor:
		out := *x
		return &out
	case *FunctionCall:
		out := *x
		return &out
	}
	return e // nil
}

package parser

import (
	"fmt"
	"strconv"

	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Result holds everything found in one source unit: a program (rules and
// facts, in order) and any queries.
type Result struct {
	Program *ast.Program
	Queries []ast.Query
}

type parser struct {
	bank  *term.Bank
	toks  []token
	pos   int
	anonN int
}

// Parse parses src into rules, facts and queries over the given bank.
func Parse(b *term.Bank, src string) (*Result, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{bank: b, toks: toks}
	res := &Result{Program: ast.NewProgram(b)}
	for p.peek().kind != tokEOF {
		if p.peek().kind == tokPunct && p.peek().text == "?-" {
			p.advance()
			goal, err := p.literal()
			if err != nil {
				return nil, err
			}
			if goal.Negated {
				return nil, p.errAt(p.peek(), "query goal must be positive")
			}
			if err := p.expect("."); err != nil {
				return nil, err
			}
			res.Queries = append(res.Queries, ast.Query{Goal: goal})
			continue
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		res.Program.Add(r)
	}
	return res, nil
}

// ParseRule parses a single rule or fact (terminated by '.').
func ParseRule(b *term.Bank, src string) (ast.Rule, error) {
	res, err := Parse(b, src)
	if err != nil {
		return ast.Rule{}, err
	}
	if len(res.Queries) != 0 || len(res.Program.Rules) != 1 {
		return ast.Rule{}, fmt.Errorf("expected exactly one rule in %q", src)
	}
	return res.Program.Rules[0], nil
}

// ParseQuery parses a single "?- goal." query.
func ParseQuery(b *term.Bank, src string) (ast.Query, error) {
	res, err := Parse(b, src)
	if err != nil {
		return ast.Query{}, err
	}
	if len(res.Queries) != 1 || len(res.Program.Rules) != 0 {
		return ast.Query{}, fmt.Errorf("expected exactly one query in %q", src)
	}
	return res.Queries[0], nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errAt(t token, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != text {
		return p.errAt(t, "expected %q, found %s", text, t)
	}
	p.advance()
	return nil
}

func (p *parser) rule() (ast.Rule, error) {
	head, err := p.literal()
	if err != nil {
		return ast.Rule{}, err
	}
	if head.Negated {
		return ast.Rule{}, p.errAt(p.peek(), "rule head must be positive")
	}
	r := ast.Rule{Head: head}
	if p.peek().kind == tokPunct && p.peek().text == ":-" {
		p.advance()
		for {
			l, err := p.literal()
			if err != nil {
				return ast.Rule{}, err
			}
			r.Body = append(r.Body, l)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.expect("."); err != nil {
		return ast.Rule{}, err
	}
	return r, nil
}

var infixOps = map[string]bool{
	ast.BuiltinEq: true, ast.BuiltinNeq: true,
	ast.BuiltinLt: true, ast.BuiltinLe: true,
	ast.BuiltinGt: true, ast.BuiltinGe: true,
}

func (p *parser) literal() (ast.Literal, error) {
	negated := false
	if t := p.peek(); t.kind == tokIdent && t.text == "not" {
		p.advance()
		negated = true
	}
	// An atom is an identifier with optional arguments. It goes straight
	// into the literal: interning it as a compound would keep every ground
	// fact and query in the append-only bank for good. Only when an infix
	// builtin follows is it a term after all, as in f(a) = X.
	t := p.peek()
	var lhs ast.Term
	if t.kind == tokIdent {
		sym, args, call, err := p.atom()
		if err != nil {
			return ast.Literal{}, err
		}
		if !p.infixNext() {
			return ast.Literal{Pred: sym, Args: args, Negated: negated}, nil
		}
		lhs = ast.C(term.Symbol(sym))
		if call {
			lhs = ast.Mk(p.bank, sym, args...)
		}
	} else {
		var err error
		if lhs, err = p.term(); err != nil {
			return ast.Literal{}, err
		}
		// Any other term (an integer, a variable, a list) is no atom.
		if !p.infixNext() {
			return ast.Literal{}, p.errAt(t, "expected a literal")
		}
	}
	op := p.advance()
	rhs, err := p.term()
	if err != nil {
		return ast.Literal{}, err
	}
	pred := p.bank.Symbols().Intern(op.text)
	return ast.Literal{Pred: pred, Args: []ast.Term{lhs, rhs}, Negated: negated}, nil
}

// infixNext reports whether the next token is an infix builtin operator.
func (p *parser) infixNext() bool {
	t := p.peek()
	return t.kind == tokPunct && infixOps[t.text]
}

// atom parses an identifier and its optional parenthesised arguments; call
// reports whether the parentheses were there (p() is a compound, p a
// symbol). Nothing is interned but the names.
func (p *parser) atom() (sym symtab.Sym, args []ast.Term, call bool, err error) {
	sym = p.bank.Symbols().Intern(p.advance().text)
	if nt := p.peek(); nt.kind != tokPunct || nt.text != "(" {
		return sym, nil, false, nil
	}
	p.advance()
	if p.peek().kind == tokPunct && p.peek().text == ")" {
		p.advance()
		return sym, nil, true, nil
	}
	for {
		a, err := p.term()
		if err != nil {
			return sym, nil, true, err
		}
		args = append(args, a)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return sym, nil, true, err
	}
	return sym, args, true, nil
}

func (p *parser) term() (ast.Term, error) {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.advance()
		n, err := p.parseInt(t, t.text, false)
		if err != nil {
			return ast.Term{}, err
		}
		return ast.C(term.Int(n)), nil
	case t.kind == tokPunct && t.text == "-":
		p.advance()
		it := p.peek()
		if it.kind != tokInt {
			return ast.Term{}, p.errAt(it, "expected integer after '-'")
		}
		p.advance()
		n, err := p.parseInt(it, it.text, true)
		if err != nil {
			return ast.Term{}, err
		}
		return ast.C(term.Int(n)), nil
	case t.kind == tokVar:
		p.advance()
		name := t.text
		if name == "_" {
			p.anonN++
			name = fmt.Sprintf("_G%d", p.anonN)
		}
		return ast.V(p.bank.Symbols().Intern(name)), nil
	case t.kind == tokIdent:
		sym, args, call, err := p.atom()
		if err != nil {
			return ast.Term{}, err
		}
		if call {
			return ast.Mk(p.bank, sym, args...), nil
		}
		return ast.C(term.Symbol(sym)), nil
	case t.kind == tokPunct && t.text == "[":
		return p.list()
	}
	return ast.Term{}, p.errAt(t, "expected a term, found %s", t)
}

// parseInt converts an integer token, enforcing the 62-bit range the
// term.Value encoding supports.
func (p *parser) parseInt(t token, text string, negate bool) (int64, error) {
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return 0, p.errAt(t, "bad integer %q", text)
	}
	if negate {
		n = -n
	}
	const maxTermInt = 1<<61 - 1
	if n > maxTermInt || n < -(1<<61) {
		return 0, p.errAt(t, "integer %d outside the supported range [−2^61, 2^61−1]", n)
	}
	return n, nil
}

func (p *parser) list() (ast.Term, error) {
	if err := p.expect("["); err != nil {
		return ast.Term{}, err
	}
	if p.peek().kind == tokPunct && p.peek().text == "]" {
		p.advance()
		return ast.NilTerm(p.bank), nil
	}
	var elems []ast.Term
	for {
		e, err := p.term()
		if err != nil {
			return ast.Term{}, err
		}
		elems = append(elems, e)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	tail := ast.NilTerm(p.bank)
	if p.peek().kind == tokPunct && p.peek().text == "|" {
		p.advance()
		var err error
		tail, err = p.term()
		if err != nil {
			return ast.Term{}, err
		}
	}
	if err := p.expect("]"); err != nil {
		return ast.Term{}, err
	}
	return ast.MkList(p.bank, elems, tail), nil
}

// MustParse is a test and example helper: it parses src and panics on error.
func MustParse(b *term.Bank, src string) *Result {
	res, err := Parse(b, src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v", err))
	}
	return res
}

// Pred is a small helper to intern a predicate name.
func Pred(b *term.Bank, name string) symtab.Sym {
	return b.Symbols().Intern(name)
}

package policy

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("policy: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != s {
		return p.errf("expected %q, found %q", s, t.text)
	}
	p.pos++
	return nil
}

func (p *parser) expectIdent(word string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != word {
		return p.errf("expected %q, found %q", word, t.text)
	}
	p.pos++
	return nil
}

// Parse parses a full policy document.
func Parse(src string) (*Document, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	doc, err := p.document()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return doc, nil
}

// ParseExpr parses a bare expression (as carried in a packet.Policy
// layer or a firewall rule).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return e, nil
}

func (p *parser) document() (*Document, error) {
	if err := p.expectIdent("policy"); err != nil {
		return nil, err
	}
	name := p.cur()
	if name.kind != tokString {
		return nil, p.errf("policy name must be a string literal")
	}
	p.pos++
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	doc := &Document{Name: name.text}
	for {
		t := p.cur()
		if t.kind == tokPunct && t.text == "}" {
			p.pos++
			return doc, nil
		}
		if t.kind != tokIdent {
			return nil, p.errf("expected declaration or rule, found %q", t.text)
		}
		switch t.text {
		case "principal", "applies-to":
			// Who states the policy and what it governs: declarations
			// for the reader, which evaluation does not consult.
			p.pos++
			if p.cur().kind != tokIdent {
				return nil, p.errf("%s must be an identifier", t.text)
			}
			p.pos++
		case "rule":
			r, err := p.rule()
			if err != nil {
				return nil, err
			}
			doc.Rules = append(doc.Rules, *r)
		case "default":
			p.pos++
			a, err := p.action()
			if err != nil {
				return nil, err
			}
			if doc.HasDefault {
				return nil, p.errf("duplicate default")
			}
			doc.Default = a
			doc.HasDefault = true
		default:
			return nil, p.errf("unknown declaration %q", t.text)
		}
	}
}

func (p *parser) rule() (*Rule, error) {
	p.pos++ // consume "rule"
	nameTok := p.cur()
	if nameTok.kind != tokIdent {
		return nil, p.errf("rule name must be an identifier")
	}
	p.pos++
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("when"); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("then"); err != nil {
		return nil, err
	}
	act, err := p.action()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return &Rule{Name: nameTok.text, When: cond, Then: *act}, nil
}

func (p *parser) action() (*Action, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected action, found %q", t.text)
	}
	switch t.text {
	case "permit":
		p.pos++
		return &Action{Kind: Permit}, nil
	case "deny":
		p.pos++
		a := &Action{Kind: Deny}
		if p.cur().kind == tokString {
			a.Reason = p.cur().text
			p.pos++
		}
		return a, nil
	case "require":
		p.pos++
		id := p.cur()
		if id.kind != tokIdent && id.kind != tokString {
			return nil, p.errf("require needs a capability name")
		}
		p.pos++
		return &Action{Kind: Require, What: id.text}, nil
	case "price":
		p.pos++
		num := p.cur()
		if num.kind != tokNumber {
			return nil, p.errf("price needs a number")
		}
		v, err := strconv.ParseFloat(num.text, 64)
		if err != nil {
			return nil, p.errf("bad price %q", num.text)
		}
		p.pos++
		return &Action{Kind: Price, Amount: v}, nil
	}
	return nil, p.errf("unknown action %q", t.text)
}

// Expression grammar: or-expr > and-expr > not-expr > comparison > term.

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "||" {
		p.pos++
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "&&" {
		p.pos++
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.cur().kind == tokOp && p.cur().text == "!" {
		p.pos++
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{X: x}, nil
	}
	return p.comparison()
}

func isCmpOp(s string) bool {
	switch s {
	case "==", "!=", "<", ">", "<=", ">=", "in":
		return true
	}
	return false
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp && isCmpOp(p.cur().text) {
		op := p.next().text
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) term() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &LitExpr{V: Num(v)}, nil
	case t.kind == tokString:
		p.pos++
		return &LitExpr{V: Str(t.text)}, nil
	case t.kind == tokIdent && (t.text == "true" || t.text == "false"):
		p.pos++
		return &LitExpr{V: Bool(t.text == "true")}, nil
	case t.kind == tokIdent:
		p.pos++
		return NewRefExpr(t.text), nil
	case t.kind == tokPunct && t.text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokPunct && t.text == "[":
		p.pos++
		var elems []Expr
		for {
			if p.cur().kind == tokPunct && p.cur().text == "]" {
				p.pos++
				return &ListExpr{Elems: elems}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.pos++
			}
		}
	}
	return nil, p.errf("unexpected token %q", t.text)
}

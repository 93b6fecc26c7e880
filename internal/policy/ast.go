package policy

import (
	"fmt"
	"strings"
)

// ValueKind enumerates runtime value types.
type ValueKind uint8

// Value kinds.
const (
	KindBool ValueKind = iota
	KindNumber
	KindString
	KindList
)

// Value is a runtime value in the policy language.
type Value struct {
	Kind ValueKind
	B    bool
	N    float64
	S    string
	L    []Value
}

// Bool, Num, Str, and List construct values.
func Bool(b bool) Value      { return Value{Kind: KindBool, B: b} }
func Num(n float64) Value    { return Value{Kind: KindNumber, N: n} }
func Str(s string) Value     { return Value{Kind: KindString, S: s} }
func List(vs ...Value) Value { return Value{Kind: KindList, L: vs} }

// Equal compares two values structurally.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBool:
		return v.B == o.B
	case KindNumber:
		return v.N == o.N
	case KindString:
		return v.S == o.S
	default:
		if len(v.L) != len(o.L) {
			return false
		}
		for i := range v.L {
			if !v.L[i].Equal(o.L[i]) {
				return false
			}
		}
		return true
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		return fmt.Sprintf("%v", v.B)
	case KindNumber:
		if v.N == float64(int64(v.N)) {
			return fmt.Sprintf("%d", int64(v.N))
		}
		return fmt.Sprintf("%g", v.N)
	case KindString:
		return fmt.Sprintf("%q", v.S)
	default:
		parts := make([]string, len(v.L))
		for i, e := range v.L {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
}

// Expr is a policy expression AST node.
type Expr interface {
	// refs appends the attribute names this expression reads.
	refs(into *[]string)
	String() string
}

// LitExpr is a literal value.
type LitExpr struct{ V Value }

func (e *LitExpr) refs(*[]string) {}
func (e *LitExpr) String() string { return e.V.String() }

// RefExpr reads an attribute from the environment.
type RefExpr struct {
	Name string
	// unknownErr is the pre-wrapped unknown-attribute error, built once
	// at construction so the Eval miss path never calls fmt.Sprintf —
	// policies probing for absent attributes are a hot-path allocation
	// vector otherwise (the same hardening the packet decoder applies to
	// its static errors). Nil for hand-built literals; Eval falls back
	// to formatting then.
	unknownErr error
}

// NewRefExpr builds an attribute reference with its unknown-attribute
// error pre-wrapped. The parser uses it; hand-built ASTs may use a bare
// &RefExpr{Name: ...} literal at the cost of an allocation per miss.
func NewRefExpr(name string) *RefExpr {
	return &RefExpr{
		Name:       name,
		unknownErr: &EvalError{Msg: fmt.Sprintf("unknown attribute %q", name)},
	}
}

func (e *RefExpr) refs(into *[]string) { *into = append(*into, e.Name) }
func (e *RefExpr) String() string      { return e.Name }

// UnaryExpr is logical negation.
type UnaryExpr struct{ X Expr }

func (e *UnaryExpr) refs(into *[]string) { e.X.refs(into) }
func (e *UnaryExpr) String() string      { return "!" + e.X.String() }

// BinExpr is a binary operation: comparison, logic, or membership.
type BinExpr struct {
	Op   string // == != < > <= >= && || in
	L, R Expr
}

func (e *BinExpr) refs(into *[]string) { e.L.refs(into); e.R.refs(into) }
func (e *BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// ListExpr is a list literal.
type ListExpr struct{ Elems []Expr }

func (e *ListExpr) refs(into *[]string) {
	for _, el := range e.Elems {
		el.refs(into)
	}
}
func (e *ListExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ActionKind enumerates rule outcomes.
type ActionKind uint8

// Rule outcomes.
const (
	// Permit allows the action.
	Permit ActionKind = iota
	// Deny refuses it, with an optional reason — visible denial is the
	// paper's courtesy requirement ("require that devices reveal if
	// they impose limitations").
	Deny
	// Require demands an additional attribute/capability before
	// permitting (e.g. an identity scheme, a payment voucher).
	Require
	// Price permits subject to a charge.
	Price
)

func (a ActionKind) String() string {
	switch a {
	case Permit:
		return "permit"
	case Deny:
		return "deny"
	case Require:
		return "require"
	default:
		return "price"
	}
}

// Action is the consequent of a rule.
type Action struct {
	Kind   ActionKind
	Reason string  // Deny
	What   string  // Require
	Amount float64 // Price
}

// Rule is one named when/then clause.
type Rule struct {
	Name string
	When Expr
	Then Action
}

// Document is a parsed policy.
type Document struct {
	Name  string
	Rules []Rule
	// Default applies when no rule matches; when absent the document
	// default is Deny ("that which is not permitted is forbidden").
	Default    *Action
	HasDefault bool
}

// Attributes returns the sorted, deduplicated set of attribute names the
// document's rules reference — its ontology footprint.
func (d *Document) Attributes() []string {
	var all []string
	for _, r := range d.Rules {
		r.When.refs(&all)
	}
	seen := map[string]bool{}
	var out []string
	for _, a := range all {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

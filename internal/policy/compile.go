package policy

import (
	"fmt"
	"sync"
)

// This file lowers the TPL expression AST to a flat bytecode program the
// metered VM in vm.go executes. The design goals, in order:
//
//  1. Agreement: the VM must compute exactly what the tree-walking Eval
//     computes — same values, same error strings, same evaluation order —
//     for every expressible program. The differential tests and the
//     FuzzCompileEval target hold this line.
//  2. Boundedness: execution is meterable per instruction and per
//     allocation unit (see Budget), so a hostile policy fails fast with
//     ErrBudgetExceeded instead of stalling a forwarding worker.
//  3. Speed: a compiled scalar policy evaluates with zero Go allocations
//     from a pooled VM — constants live in a pool, attributes resolve
//     through interned slots, and all-literal list expressions are folded
//     to constants at compile time so membership tests don't build the
//     list per packet.

// opcode enumerates VM instructions. The set is deliberately tiny: TPL
// has no loops, calls, or assignment, so every program is a straight-line
// instruction stream plus forward jumps for short-circuit logic.
type opcode uint8

const (
	// opConst pushes consts[arg], charging its allocation units.
	opConst opcode = iota
	// opAttr pushes env[attrs[arg]]; a missing attribute returns the
	// pre-wrapped attrErrs[arg] (no allocation on the breach path).
	opAttr
	// opNot replaces a bool top-of-stack with its negation.
	opNot
	// opEq / opNe pop two values and push structural (in)equality.
	opEq
	opNe
	// opLt..opGe pop two values and push the ordered comparison;
	// number-number and string-string only, exactly as Eval.
	opLt
	opGt
	opLe
	opGe
	// opIn pops list then needle and pushes membership.
	opIn
	// opMakeList pops arg values and pushes a fresh list, charging
	// 1+arg allocation units.
	opMakeList
	// opAndJump implements `&&` short-circuit: top must be bool (else
	// the `&&` type error); if false, leave it and jump to arg; if
	// true, pop and fall through to the right operand.
	opAndJump
	// opOrJump is the `||` dual: if true, leave it and jump to arg.
	opOrJump
	// opAndCheck / opOrCheck verify the right operand of `&&`/`||` is a
	// bool, producing the same type error Eval does.
	opAndCheck
	opOrCheck
)

// instr is one instruction; arg is a constant index, attribute slot,
// element count, or jump target depending on the opcode.
type instr struct {
	op  opcode
	arg int32
}

// Program is a compiled policy expression: a flat instruction stream over
// a constant pool and interned attribute slots. Programs are immutable
// after Compile and safe for concurrent Run calls (each Run borrows a
// pooled VM).
type Program struct {
	code      []instr
	consts    []Value
	constCost []int64 // allocation units charged per constant push
	attrs     []string
	attrErrs  []error // pre-wrapped unknown-attribute errors per slot
	maxStack  int
}

// Attrs returns the attribute names the program reads, in slot order.
// The slice is shared; callers must not mutate it.
func (p *Program) Attrs() []string { return p.attrs }

// allocUnits is the guest-visible materialization cost of a value: free
// for scalars, one unit per string, and 1+len plus element costs per
// list. Charged when a constant is pushed or a list is built, so the
// allocation budget bounds what a policy can materialize per invocation
// even when the bytes themselves are pooled.
func allocUnits(v Value) int64 {
	switch v.Kind {
	case KindString:
		return 1
	case KindList:
		u := int64(1 + len(v.L))
		for _, e := range v.L {
			u += allocUnits(e)
		}
		return u
	default:
		return 0
	}
}

// scalarKey is the dedup key for pool constants (lists are not deduped —
// structural comparison on hostile inputs is what budgets exist to stop).
type scalarKey struct {
	kind ValueKind
	b    bool
	n    float64
	s    string
}

type compiler struct {
	p        *Program
	constIdx map[scalarKey]int32
	attrIdx  map[string]int32
	depth    int
}

func (c *compiler) emit(op opcode, arg int32) int {
	c.p.code = append(c.p.code, instr{op, arg})
	return len(c.p.code) - 1
}

func (c *compiler) push(n int) {
	c.depth += n
	if c.depth > c.p.maxStack {
		c.p.maxStack = c.depth
	}
}

func (c *compiler) pop(n int) { c.depth -= n }

func (c *compiler) constant(v Value) int32 {
	if v.Kind != KindList {
		k := scalarKey{v.Kind, v.B, v.N, v.S}
		if idx, ok := c.constIdx[k]; ok {
			return idx
		}
		idx := int32(len(c.p.consts))
		c.constIdx[k] = idx
		c.p.consts = append(c.p.consts, v)
		c.p.constCost = append(c.p.constCost, allocUnits(v))
		return idx
	}
	c.p.consts = append(c.p.consts, v)
	c.p.constCost = append(c.p.constCost, allocUnits(v))
	return int32(len(c.p.consts) - 1)
}

func (c *compiler) attr(name string) int32 {
	if idx, ok := c.attrIdx[name]; ok {
		return idx
	}
	idx := int32(len(c.p.attrs))
	c.attrIdx[name] = idx
	c.p.attrs = append(c.p.attrs, name)
	// Pre-wrapped so the VM's unknown-attribute path is a slot load, not
	// an fmt.Sprintf — the same hardening eval.go applies to parsed
	// RefExprs. The message matches Eval's exactly (differential
	// contract).
	c.p.attrErrs = append(c.p.attrErrs, &EvalError{Msg: fmt.Sprintf("unknown attribute %q", name)})
	return idx
}

// fold returns the constant value of an expression made only of literals
// (including list literals of literals), so `port in [80, 443]` compiles
// to a single pooled constant instead of a per-invocation list build.
func fold(e Expr) (Value, bool) {
	switch n := e.(type) {
	case *LitExpr:
		return n.V, true
	case *ListExpr:
		out := make([]Value, len(n.Elems))
		for i, el := range n.Elems {
			v, ok := fold(el)
			if !ok {
				return Value{}, false
			}
			out[i] = v
		}
		return List(out...), true
	}
	return Value{}, false
}

func (c *compiler) compile(e Expr) error {
	if v, ok := fold(e); ok {
		c.emit(opConst, c.constant(v))
		c.push(1)
		return nil
	}
	switch n := e.(type) {
	case *RefExpr:
		c.emit(opAttr, c.attr(n.Name))
		c.push(1)
		return nil
	case *ListExpr:
		for _, el := range n.Elems {
			if err := c.compile(el); err != nil {
				return err
			}
		}
		c.emit(opMakeList, int32(len(n.Elems)))
		c.pop(len(n.Elems) - 1)
		return nil
	case *UnaryExpr:
		if err := c.compile(n.X); err != nil {
			return err
		}
		c.emit(opNot, 0)
		return nil
	case *BinExpr:
		return c.compileBin(n)
	}
	return fmt.Errorf("policy: compile: unknown expression node %T", e)
}

func (c *compiler) compileBin(n *BinExpr) error {
	if n.Op == "&&" || n.Op == "||" {
		if err := c.compile(n.L); err != nil {
			return err
		}
		jop, chk := opAndJump, opAndCheck
		if n.Op == "||" {
			jop, chk = opOrJump, opOrCheck
		}
		j := c.emit(jop, 0)
		c.pop(1) // fall-through consumes the left operand
		if err := c.compile(n.R); err != nil {
			return err
		}
		c.emit(chk, 0)
		c.p.code[j].arg = int32(len(c.p.code))
		return nil
	}
	if err := c.compile(n.L); err != nil {
		return err
	}
	if err := c.compile(n.R); err != nil {
		return err
	}
	var op opcode
	switch n.Op {
	case "==":
		op = opEq
	case "!=":
		op = opNe
	case "<":
		op = opLt
	case ">":
		op = opGt
	case "<=":
		op = opLe
	case ">=":
		op = opGe
	case "in":
		op = opIn
	default:
		return fmt.Errorf("policy: compile: unknown operator %q", n.Op)
	}
	c.emit(op, 0)
	c.pop(1)
	return nil
}

// Compile lowers an expression to a metered bytecode program. Compilation
// is linear in the AST size; a program compiled once evaluates any number
// of times with per-invocation budgets.
func Compile(e Expr) (*Program, error) {
	c := &compiler{
		p:        &Program{},
		constIdx: make(map[scalarKey]int32),
		attrIdx:  make(map[string]int32),
	}
	if err := c.compile(e); err != nil {
		return nil, err
	}
	if c.depth != 1 {
		return nil, fmt.Errorf("policy: compile: internal error: final stack depth %d", c.depth)
	}
	return c.p, nil
}

// CompiledDocument is a Document whose rule conditions are compiled.
// Evaluate mirrors the tree-walking Evaluate exactly: rules in order,
// first true condition decides, erroring rules are skipped (fail safe)
// with the error reported alongside.
//
// A CompiledDocument owns its VM scratch, so Evaluate is NOT safe for
// concurrent use — it is per-worker state, like the middleboxes that
// hold one. The owned scratch (rather than the shared pool Run uses)
// keeps Evaluate's allocation count deterministic: a GC cycle landing
// mid-measurement cannot empty a pool it never touches. Concurrent
// callers should Run the Rules programs directly.
type CompiledDocument struct {
	Doc   *Document
	Rules []*Program // compiled When conditions, index-aligned with Doc.Rules
	m     vm         // owned execution scratch, grown once to the largest rule
}

// CompileDocument compiles every rule condition of a parsed document.
func CompileDocument(doc *Document) (*CompiledDocument, error) {
	cd := &CompiledDocument{Doc: doc, Rules: make([]*Program, len(doc.Rules))}
	for i := range doc.Rules {
		p, err := Compile(doc.Rules[i].When)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", doc.Rules[i].Name, err)
		}
		cd.Rules[i] = p
	}
	return cd, nil
}

// Evaluate runs the compiled document under one shared per-invocation
// budget. Budget exhaustion inside a rule is treated like any other rule
// error — the rule is skipped and the breach reported — so a hostile rule
// cannot veto the document, only waste its own budget.
func (cd *CompiledDocument) Evaluate(env Env, b *Budget) (Decision, []error) {
	var errs []error
	for i := range cd.Doc.Rules {
		r := &cd.Doc.Rules[i]
		v, err := cd.Rules[i].exec(&cd.m, env, nil, b)
		if err != nil {
			errs = append(errs, fmt.Errorf("rule %q: %w", r.Name, err))
			continue
		}
		if v.Kind != KindBool {
			errs = append(errs, fmt.Errorf("rule %q: condition is %v, not bool", r.Name, v))
			continue
		}
		if v.B {
			return Decision{Action: r.Then, Rule: r.Name}, errs
		}
	}
	if cd.Doc.HasDefault {
		return Decision{Action: *cd.Doc.Default, Default: true}, errs
	}
	return Decision{
		Action:  Action{Kind: Deny, Reason: "no matching rule"},
		Default: true,
	}, errs
}

// Cache is a compile-once cache keyed by policy text: the same policy
// installed on a million nodes parses and compiles exactly once, and
// textually different but structurally identical policies (whitespace,
// comments, parenthesization) share one Program via the canonical
// rendering of the parsed expression. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	byText  map[string]*cacheEntry
	byCanon map[string]*Program
}

type cacheEntry struct {
	prog *Program
	err  error
}

// canonLimit caps the sources eligible for canonical-form dedup:
// rendering a deeply nested expression back to text is quadratic in the
// worst case, which is exactly the pathological input budgets defend
// against, so oversized policies are cached by raw text only.
const canonLimit = 64 << 10

// NewCache creates an empty compile cache.
func NewCache() *Cache {
	return &Cache{byText: make(map[string]*cacheEntry), byCanon: make(map[string]*Program)}
}

// DefaultCache is the process-wide cache the choice-point integrations
// (netsim, wire, economics, trust, middlebox) share.
var DefaultCache = NewCache()

// CompileText parses and compiles a bare TPL expression, memoized on the
// raw text and deduplicated on the canonical form. Parse and compile
// errors are memoized too, so hostile repeated garbage costs one parse.
func (c *Cache) CompileText(src string) (*Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byText[src]; ok {
		return e.prog, e.err
	}
	prog, err := c.compileLocked(src)
	c.byText[src] = &cacheEntry{prog, err}
	return prog, err
}

func (c *Cache) compileLocked(src string) (*Program, error) {
	expr, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	canon := ""
	if len(src) <= canonLimit {
		canon = expr.String()
		if p, ok := c.byCanon[canon]; ok {
			return p, nil
		}
	}
	p, err := Compile(expr)
	if err != nil {
		return nil, err
	}
	if canon != "" {
		c.byCanon[canon] = p
	}
	return p, nil
}

// CompileText compiles src through the process-wide DefaultCache.
func CompileText(src string) (*Program, error) { return DefaultCache.CompileText(src) }

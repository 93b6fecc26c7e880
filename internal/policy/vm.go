package policy

import "sync"

// The metered stack VM. One Run borrows a pooled machine, executes the
// flat instruction stream, and returns exactly what the tree-walking
// Eval would — same value, same error strings, same evaluation order —
// while charging a per-invocation Budget per instruction and per
// allocation unit.
//
// Safety argument (the Starlark model, specialized to a loop-free
// language):
//
//   - Steps: TPL has no loops, calls, or recursion at runtime, so a
//     program of K instructions executes at most K steps; the step
//     budget lets an enforcement point cap cost below K for
//     adversarially large programs. Every opcode's per-step work is O(1)
//     except Equal/in on lists, whose operands' materialization was
//     itself charged one allocation unit per element — so total work per
//     invocation is O(Steps + Allocs), always.
//   - Allocations: every op that materializes a string or list charges
//     units before producing the value, including constant pushes (the
//     pool is shared, but each invocation pays for what it touches), so
//     the allocation budget bounds per-invocation memory traffic.
//   - No Go allocation on the breach path: budget errors and unknown-
//     attribute errors are pre-built; a hostile policy costs its budget
//     and nothing else.

// vm is the reusable execution scratch: just a value stack, sized to the
// largest program it has run.
type vm struct {
	stack []Value
}

var vmPool = sync.Pool{New: func() interface{} { return &vm{} }}

// opSyms maps comparison/logic opcodes to their source-level operator
// for error messages that match Eval byte-for-byte.
var opSyms = [...]string{
	opLt: "<", opGt: ">", opLe: "<=", opGe: ">=",
	opAndJump: "&&", opAndCheck: "&&", opOrJump: "||", opOrCheck: "||",
}

// Run executes the program under env with the given budget and returns
// the result. A nil budget runs unmetered (for trusted internal use
// only; choice points handling foreign policies must pass one). Budgets
// accumulate across Runs, so a document can share one budget
// across its rules. Steady-state Run on a scalar program performs zero
// Go allocations.
func (p *Program) Run(env Env, b *Budget) (Value, error) {
	m := vmPool.Get().(*vm)
	v, err := p.exec(m, env, nil, b)
	vmPool.Put(m)
	return v, err
}

// RunSlots is the dense fast path: attribute slot i (see Attrs) reads
// slots[i] directly, skipping the map lookup. The caller owns slot
// binding and must supply exactly len(Attrs()) values; use Run when the
// attribute vocabulary is not known in advance.
func (p *Program) RunSlots(slots []Value, b *Budget) (Value, error) {
	if len(slots) != len(p.attrs) {
		return Value{}, &EvalError{Msg: "slot binding does not match program attributes"}
	}
	m := vmPool.Get().(*vm)
	v, err := p.exec(m, env0, slots, b)
	vmPool.Put(m)
	return v, err
}

// env0 is the empty environment RunSlots passes (never consulted).
var env0 = Env{}

func (p *Program) exec(m *vm, env Env, slots []Value, b *Budget) (Value, error) {
	if cap(m.stack) < p.maxStack {
		m.stack = make([]Value, 0, p.maxStack)
	}
	stack := m.stack[:0]
	metered := b != nil
	var steps, allocs, stepLimit, allocLimit int64
	if metered {
		steps, allocs = b.stepsUsed, b.allocsUsed
		stepLimit, allocLimit = b.Steps, b.Allocs
	}
	var res Value
	var err error
	code := p.code
loop:
	for pc := 0; pc < len(code); pc++ {
		if metered {
			steps++
			if steps > stepLimit {
				err = ErrBudgetExceeded
				break loop
			}
		}
		in := code[pc]
		switch in.op {
		case opConst:
			if metered {
				allocs += p.constCost[in.arg]
				if allocs > allocLimit {
					err = ErrBudgetExceeded
					break loop
				}
			}
			stack = append(stack, p.consts[in.arg])
		case opAttr:
			if slots != nil {
				stack = append(stack, slots[in.arg])
				break
			}
			v, ok := env[p.attrs[in.arg]]
			if !ok {
				err = p.attrErrs[in.arg]
				break loop
			}
			stack = append(stack, v)
		case opNot:
			top := stack[len(stack)-1]
			if top.Kind != KindBool {
				err = evalErrf("! applied to %v", top)
				break loop
			}
			stack[len(stack)-1] = Bool(!top.B)
		case opEq, opNe:
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			eq := l.Equal(r)
			if in.op == opNe {
				eq = !eq
			}
			stack[len(stack)-1] = Bool(eq)
		case opLt, opGt, opLe, opGe:
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			var cmp bool
			switch {
			case l.Kind == KindNumber && r.Kind == KindNumber:
				switch in.op {
				case opLt:
					cmp = l.N < r.N
				case opGt:
					cmp = l.N > r.N
				case opLe:
					cmp = l.N <= r.N
				default:
					cmp = l.N >= r.N
				}
			case l.Kind == KindString && r.Kind == KindString:
				switch in.op {
				case opLt:
					cmp = l.S < r.S
				case opGt:
					cmp = l.S > r.S
				case opLe:
					cmp = l.S <= r.S
				default:
					cmp = l.S >= r.S
				}
			default:
				err = evalErrf("%s applied to %v and %v", opSyms[in.op], l, r)
				break loop
			}
			stack[len(stack)-1] = Bool(cmp)
		case opIn:
			r := stack[len(stack)-1]
			l := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			if r.Kind != KindList {
				err = evalErrf("'in' needs a list on the right, got %v", r)
				break loop
			}
			found := false
			for i := range r.L {
				if l.Equal(r.L[i]) {
					found = true
					break
				}
			}
			stack[len(stack)-1] = Bool(found)
		case opMakeList:
			n := int(in.arg)
			if metered {
				allocs += int64(1 + n)
				if allocs > allocLimit {
					err = ErrBudgetExceeded
					break loop
				}
			}
			out := make([]Value, n)
			copy(out, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			stack = append(stack, List(out...))
		case opAndJump, opOrJump:
			top := stack[len(stack)-1]
			if top.Kind != KindBool {
				err = evalErrf("%s applied to %v", opSyms[in.op], top)
				break loop
			}
			short := top.B == (in.op == opOrJump)
			if short {
				pc = int(in.arg) - 1 // leave the deciding value on the stack
			} else {
				stack = stack[:len(stack)-1]
			}
		case opAndCheck, opOrCheck:
			top := stack[len(stack)-1]
			if top.Kind != KindBool {
				err = evalErrf("%s applied to %v", opSyms[in.op], top)
				break loop
			}
		}
	}
	if err == nil {
		res = stack[len(stack)-1]
	}
	m.stack = stack[:0]
	if metered {
		b.stepsUsed, b.allocsUsed = steps, allocs
	}
	return res, err
}

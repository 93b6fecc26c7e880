package economics

import (
	"errors"
	"fmt"
	"math"
)

// Ledger is the settlement substrate for value flow: "Whatever the
// compensation, recognize that it must flow, just as much as data must
// flow" (§IV-C). It tracks balances and enforces conservation — value is
// transferred, never created.
type Ledger struct {
	balances map[string]float64
	// initial is the sum of all opening balances, for the conservation
	// invariant.
	initial float64
}

// ErrInsufficient is returned on overdraft attempts.
var ErrInsufficient = errors.New("economics: insufficient balance")

// NewLedger opens accounts with the given balances.
func NewLedger(opening map[string]float64) *Ledger {
	l := &Ledger{balances: make(map[string]float64, len(opening))}
	for k, v := range opening {
		l.balances[k] = v
		l.initial += v
	}
	return l
}

// Balance returns an account balance (0 for unknown accounts).
func (l *Ledger) Balance(acct string) float64 { return l.balances[acct] }

// Transfer moves amount from one account to another. Negative amounts
// are rejected; overdrafts are rejected.
func (l *Ledger) Transfer(from, to string, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("economics: negative transfer %v", amount)
	}
	if l.balances[from] < amount {
		return fmt.Errorf("%w: %s has %v, needs %v", ErrInsufficient, from, l.balances[from], amount)
	}
	l.balances[from] -= amount
	l.balances[to] += amount
	return nil
}

// Conserved verifies the conservation invariant: total value equals the
// opening total.
func (l *Ledger) Conserved() bool {
	total := 0.0
	for _, v := range l.balances {
		total += v
	}
	return math.Abs(total-l.initial) < 1e-6
}

package trust

// Reputation is a third-party reputation service: "web sites assess and
// report the reputation of other sites" (§V-B). It scores subjects from
// reported interaction outcomes using a Beta(1,1)-prior estimator, so
// unknown subjects score 0.5.
type Reputation struct {
	// Accuracy is the probability a report is recorded truthfully;
	// mediators themselves vary in quality, which is why choice among
	// them matters.
	Accuracy float64

	good, bad map[string]int
}

// NewReputation creates a service with the given report accuracy
// (1.0 = perfect bookkeeping).
func NewReputation(accuracy float64) *Reputation {
	return &Reputation{Accuracy: accuracy, good: make(map[string]int), bad: make(map[string]int)}
}

// Report records an interaction outcome for subject. flip provides the
// randomness for inaccurate mediators; pass nil-safe rand via a closure
// returning false for deterministic perfect mediators.
func (r *Reputation) Report(subject string, wasGood bool, flip func() bool) {
	if r.Accuracy < 1 && flip != nil && flip() {
		wasGood = !wasGood
	}
	if wasGood {
		r.good[subject]++
	} else {
		r.bad[subject]++
	}
}

// Score returns the posterior mean reputation in [0,1]; 0.5 for unknown
// subjects.
func (r *Reputation) Score(subject string) float64 {
	g, b := r.good[subject], r.bad[subject]
	return float64(g+1) / float64(g+b+2)
}

// Guarantor is a liability-limiting intermediary — the credit-card role
// in §V-B: "credit card companies limit our liability to $50". It holds
// transactions in escrow-like records and makes the customer whole (up
// to the cap) when a dispute is upheld.
type Guarantor struct {
	Name string
	// LiabilityCap is the maximum loss a customer bears per dispute.
	LiabilityCap float64

	txSeq int
	txs   map[int]*Transaction
}

// Transaction is one guaranteed purchase.
type Transaction struct {
	Amount   float64
	Disputed bool
	Refunded float64
}

// NewGuarantor creates a guarantor with the classic $50-style cap.
func NewGuarantor(name string, cap float64) *Guarantor {
	return &Guarantor{Name: name, LiabilityCap: cap, txs: make(map[int]*Transaction)}
}

// Charge records a guaranteed transaction of amount and returns its ID.
func (g *Guarantor) Charge(amount float64) int {
	g.txSeq++
	g.txs[g.txSeq] = &Transaction{Amount: amount}
	return g.txSeq
}

// Dispute resolves a transaction in the buyer's favor: the buyer's loss
// is capped at LiabilityCap, the guarantor refunds the rest. It returns
// the refund (0 for unknown or already-disputed transactions).
func (g *Guarantor) Dispute(txID int) float64 {
	tx, ok := g.txs[txID]
	if !ok || tx.Disputed {
		return 0
	}
	tx.Disputed = true
	refund := tx.Amount - g.LiabilityCap
	if refund < 0 {
		refund = 0
	}
	tx.Refunded = refund
	return refund
}

// BuyerLoss returns what the buyer ultimately lost on a transaction that
// went bad: the full amount if not disputed, else the cap.
func (g *Guarantor) BuyerLoss(txID int) float64 {
	tx, ok := g.txs[txID]
	if !ok {
		return 0
	}
	if !tx.Disputed {
		return tx.Amount
	}
	return tx.Amount - tx.Refunded
}

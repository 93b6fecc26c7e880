package trust

// Reputation is a third-party reputation service: "web sites assess and
// report the reputation of other sites" (§V-B). It scores subjects from
// reported interaction outcomes using a Beta(1,1)-prior estimator, so
// unknown subjects score 0.5.
type Reputation struct {
	// Name identifies the service; parties choose which one to consult.
	Name string
	// Accuracy is the probability a report is recorded truthfully;
	// mediators themselves vary in quality, which is why choice among
	// them matters.
	Accuracy float64

	good, bad map[string]int
}

// NewReputation creates a service with the given report accuracy
// (1.0 = perfect bookkeeping).
func NewReputation(name string, accuracy float64) *Reputation {
	return &Reputation{
		Name: name, Accuracy: accuracy,
		good: make(map[string]int), bad: make(map[string]int),
	}
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
	// FeeRate is the guarantor's cut of each transaction.
	FeeRate float64

	// Revenue accumulates fees; Payouts accumulates dispute refunds.
	Revenue, Payouts float64

	txSeq int
	txs   map[int]*Transaction
}

// Transaction is one guaranteed purchase.
type Transaction struct {
	ID       int
	Buyer    string
	Seller   string
	Amount   float64
	Disputed bool
	Refunded float64
}

// NewGuarantor creates a guarantor with the classic $50-style cap.
func NewGuarantor(name string, cap float64, feeRate float64) *Guarantor {
	return &Guarantor{Name: name, LiabilityCap: cap, FeeRate: feeRate, txs: make(map[int]*Transaction)}
}

// Charge records a guaranteed transaction and returns its ID.
func (g *Guarantor) Charge(buyer, seller string, amount float64) int {
	g.txSeq++
	g.Revenue += amount * g.FeeRate
	g.txs[g.txSeq] = &Transaction{ID: g.txSeq, Buyer: buyer, Seller: seller, Amount: amount}
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
	g.Payouts += refund
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

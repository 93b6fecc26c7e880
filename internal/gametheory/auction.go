package gametheory

import "math"

// This file implements the mechanism-design strand of §II-B: Vickrey's
// second-price auction, whose point is that it makes truth-telling a
// dominant strategy — removing the information sub-game from the tussle
// ("with tussle reduced or eliminated in the information subgame, it
// becomes simpler to reduce or guide tussle in the larger overall
// game").

// Bid is one bidder's declared value.
type Bid struct {
	Bidder string
	Amount float64
}

// AuctionResult is the outcome of a single-item auction.
type AuctionResult struct {
	Winner string
	// Price is what the winner pays.
	Price float64
}

// Vickrey runs a sealed-bid second-price auction. Ties go to the
// earliest bidder (deterministic).
func Vickrey(bids []Bid) (AuctionResult, bool) {
	if len(bids) == 0 {
		return AuctionResult{}, false
	}
	winIdx := 0
	for i, b := range bids {
		if b.Amount > bids[winIdx].Amount {
			winIdx = i
		}
	}
	second := math.Inf(-1)
	for i, b := range bids {
		if i != winIdx && b.Amount > second {
			second = b.Amount
		}
	}
	if math.IsInf(second, -1) {
		second = 0
	}
	return AuctionResult{Winner: bids[winIdx].Bidder, Price: second}, true
}

// FirstPrice runs a sealed-bid first-price auction, the non-truthful
// comparator.
func FirstPrice(bids []Bid) (AuctionResult, bool) {
	if len(bids) == 0 {
		return AuctionResult{}, false
	}
	winIdx := 0
	for i, b := range bids {
		if b.Amount > bids[winIdx].Amount {
			winIdx = i
		}
	}
	return AuctionResult{Winner: bids[winIdx].Bidder, Price: bids[winIdx].Amount}, true
}

// Utility computes a bidder's utility from an auction outcome given
// their true value.
func Utility(res AuctionResult, bidder string, trueValue float64) float64 {
	if res.Winner != bidder {
		return 0
	}
	return trueValue - res.Price
}

// TruthfulnessViolation searches for a profitable misreport for one
// bidder against fixed competitor bids, over a grid of deviations. It
// returns the maximum gain from lying (0 for a truthful mechanism).
func TruthfulnessViolation(mechanism func([]Bid) (AuctionResult, bool), bidder string, trueValue float64, others []Bid, grid []float64) float64 {
	truthful := append([]Bid{{bidder, trueValue}}, others...)
	res, ok := mechanism(truthful)
	if !ok {
		return 0
	}
	base := Utility(res, bidder, trueValue)
	maxGain := 0.0
	for _, dev := range grid {
		lied := append([]Bid{{bidder, dev}}, others...)
		r, ok := mechanism(lied)
		if !ok {
			continue
		}
		if gain := Utility(r, bidder, trueValue) - base; gain > maxGain {
			maxGain = gain
		}
	}
	return maxGain
}

// Congestion tussle: §II-B's lead example run end to end. Ten flows
// share a bottleneck; first everyone follows the AIMD rules (the social
// contract), then defectors appear, and the example shows the three
// responses the paper discusses: do nothing (FIFO — "the technical
// design will do nothing to bound the shift"), out-of-band enforcement
// (social pressure converting cheaters), and a mechanism that bounds the
// tussle inside the design (fair queueing).
//
// Run with: go run ./examples/congestion_tussle
package main

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/sim"
)

func flows(cheaters int) []*congestion.Flow {
	var out []*congestion.Flow
	for i := 0; i < 10; i++ {
		out = append(out, congestion.NewFlow(i < cheaters))
	}
	return out
}

func report(label string, b *congestion.Bottleneck) {
	cheaterShare := b.ShareOf(func(f *congestion.Flow) bool { return f.Aggressive })
	fmt.Printf("  %-34s goodput %5.1f/100  loss %4.1f%%  cheater share %4.1f%%  fairness %.2f\n",
		label, b.Goodput(), b.LossRate()*100, cheaterShare*100, b.JainIndex())
}

func main() {
	const rounds = 600

	fmt.Println("the social contract holds (all 10 flows follow AIMD):")
	b := congestion.NewBottleneck(100, congestion.SharedFIFO, flows(0)...)
	b.Run(rounds)
	report("shared FIFO, 0 cheaters", b)

	fmt.Println("\nthe balance shifts (3 flows stop backing off):")
	b = congestion.NewBottleneck(100, congestion.SharedFIFO, flows(3)...)
	b.Run(rounds)
	report("shared FIFO, 3 cheaters", b)
	fmt.Println(`  ("should this balance change, the technical design of the system`)
	fmt.Println(`    will do nothing to bound or guide the resulting shift" — §II-B)`)

	fmt.Println("\nresponse 1 — out-of-band enforcement (social pressure):")
	b = congestion.NewBottleneck(100, congestion.SharedFIFO, flows(3)...)
	rng := sim.NewRNG(7)
	converted := congestion.SocialPressure(b, rng, 0.02, rounds)
	report(fmt.Sprintf("FIFO + enforcement (%d converted)", converted), b)

	fmt.Println("\nresponse 2 — a mechanism that bounds the tussle (fair queueing):")
	b = congestion.NewBottleneck(100, congestion.FairQueue, flows(3)...)
	b.Run(rounds)
	report("fair queue, 3 cheaters", b)
	fmt.Println("  (the cheater keeps only the capacity honest flows leave idle —")
	fmt.Println("   defection no longer pays, and no one had to be caught)")
}

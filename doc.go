// Package repro is a from-scratch Go reproduction of "Tussle in
// Cyberspace: Defining Tomorrow's Internet" (Clark, Wroclawski, Sollins,
// Braden — SIGCOMM 2002 / IEEE-ACM ToN 2005): a tussle-aware network
// architecture toolkit plus the simulated substrates its arguments rest
// on.
//
// The root package holds only documentation, the benchmark harness
// (bench_test.go) that regenerates every experiment table, and the
// surface guard (surface_test.go) that fails on exported code under
// internal/ that no experiment, CLI, example or benchmark reaches; the
// library lives under internal/ — see DESIGN.md for the system inventory
// and the per-experiment index, and EXPERIMENTS.md for claim-vs-measured
// results.
package repro

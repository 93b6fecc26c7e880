package invariant

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scale"
)

// TestSweepShardedClean: the sharded core holds the event-stream
// invariants (conservation, queue-bound, clock) and per-packet trace
// validity with a checker on every shard of the parallel driver, under
// chaos, at several shard counts.
func TestSweepShardedClean(t *testing.T) {
	res := SweepSharded(Config{Trials: 24, Seed: 42}, 0)
	if !res.Clean() {
		for _, f := range res.Failures {
			for _, v := range f.Violations {
				t.Errorf("trial %d seed %d: %s", f.Trial, f.Seed, v)
			}
		}
	}
	if res.Trials != 24 {
		t.Fatalf("trials = %d", res.Trials)
	}
}

// TestShardedCheckerSeesTraffic guards against the sweep silently
// checking nothing: the shards' checkers must actually observe the bulk
// traffic, and must see packets cross shards through the outboxes. At 4
// shards some packets end on another shard than the one that sent them,
// so some shard's own counts do not balance, while the counts summed
// across shards do.
func TestShardedCheckerSeesTraffic(t *testing.T) {
	sm := scale.Prepare(scale.Config{Nodes: 200, Packets: 1000, Seed: 42, Shards: 4, Parallel: true})
	cs := shardCheckers(sm, ShardedInvariants())
	traces := sm.SendProbes(8)
	res := sm.Run()
	if sm.S.Handoffs() == 0 {
		t.Fatal("no packet crossed shards")
	}
	unbalanced := 0
	for _, c := range cs {
		if c.delivers+c.drops != c.sends+c.dups {
			unbalanced++
		}
	}
	if unbalanced == 0 {
		t.Fatalf("every shard's own counts balance after %d handoffs: the checkers saw no packet cross shards", sm.S.Handoffs())
	}
	c := merge(cs)
	if c.sends < 1000 {
		t.Fatalf("checkers saw %d sends, want >= 1000", c.sends)
	}
	if c.delivers+c.drops != c.sends+c.dups {
		t.Fatalf("merged counts unbalanced: sends=%d dups=%d delivers=%d drops=%d",
			c.sends, c.dups, c.delivers, c.drops)
	}
	delivered := 0
	for _, tr := range traces {
		c.CheckTrace(tr, 64)
		if tr.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no probe delivered on a fault-free run")
	}
	c.Finish()
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations on clean run: %v", vs)
	}
	if res.Delivered+res.Dropped != 1000+len(traces) {
		t.Fatalf("result counts %d+%d don't cover traffic+probes", res.Delivered, res.Dropped)
	}
}

// TestShardedCheckerDetectsViolation: a shard's checker is live — a
// fabricated non-monotone event stream trips its clock invariant.
func TestShardedCheckerDetectsViolation(t *testing.T) {
	sm := scale.Prepare(scale.Config{Nodes: 150, Packets: 500, Seed: 7, Shards: 2, Parallel: true})
	c := shardCheckers(sm, ShardedInvariants())[1]
	sm.Run()
	if c.sends == 0 {
		t.Fatal("shard 1's checker saw no sends")
	}
	// Replay a stale-timestamped event into the sink by hand.
	c.Emit(obs.Event{Time: 1, Scope: "netsim", Kind: "deliver", Node: 1})
	found := false
	for _, v := range c.Violations() {
		if v.Invariant == Clock && strings.Contains(v.Detail, "before previous event") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale event not flagged; violations: %v", c.Violations())
	}
}

package xrt

import (
	"testing"
	"time"
)

// chaosWorkload drives every charge class the protocol hooks into —
// remote lookups, aggregated store batches (to two destinations), and
// collectives — with a deterministic per-rank program order.
func chaosWorkload(r *Rank) {
	p := r.N()
	for i := 0; i < 200; i++ {
		r.ChargeLookup((r.ID+1+i)%p, 64)
		if i%10 == 0 {
			r.ChargeStoreBatch((r.ID+2)%p, 16, 512)
		}
		if i%25 == 0 {
			r.ChargeStoreBatch((r.ID+3)%p, 4, 128)
		}
	}
	r.Barrier()
	r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 { return a + b })
}

func runChaos(ranks int, inj Inject) (*Team, PhaseStats) {
	team := NewTeam(Config{Ranks: ranks, RanksPerNode: 4, Seed: 3, Inject: inj})
	st := team.Run(chaosWorkload)
	return team, st
}

// TestChaosDisabledIsFree: without a chaos seed the reliability counters
// stay zero and the run is byte-for-byte the baseline.
func TestChaosDisabledIsFree(t *testing.T) {
	team, _ := runChaos(8, Inject{})
	s := team.AggStats()
	if s.Drops != 0 || s.Retries != 0 || s.Dups != 0 || s.RedeliveredBytes != 0 {
		t.Fatalf("reliability counters nonzero without a chaos seed: %+v", s)
	}
	if team.TripVirtual() != 0 {
		t.Fatal("a team without a chaos seed tripped")
	}
}

// TestChaosDeterminism: for a fixed chaos seed, two runs produce
// identical virtual time and identical per-rank statistics — the
// drop schedule is part of the configuration.
func TestChaosDeterminism(t *testing.T) {
	plan := Inject{ChaosSeed: 101, DropRate: 0.2}
	teamA, stA := runChaos(8, plan)
	teamB, stB := runChaos(8, plan)
	if stA.Virtual != stB.Virtual {
		t.Fatalf("virtual time differs across identical chaos runs: %v vs %v", stA.Virtual, stB.Virtual)
	}
	for i := 0; i < 8; i++ {
		if teamA.RankStats(i) != teamB.RankStats(i) {
			t.Fatalf("rank %d stats differ across identical chaos runs:\n%+v\n%+v",
				i, teamA.RankStats(i), teamB.RankStats(i))
		}
	}
	s := teamA.AggStats()
	if s.Drops == 0 || s.Retries == 0 || s.RedeliveredBytes == 0 {
		t.Fatalf("drop rate 0.2 produced no retry traffic: %+v", s)
	}
	if s.Dups == 0 {
		t.Fatalf("lost acks produced no duplicate deliveries: %+v", s)
	}

	// A different seed draws a different schedule.
	teamC, _ := runChaos(8, Inject{ChaosSeed: 102, DropRate: 0.2})
	if teamC.AggStats() == s {
		t.Fatal("adjacent chaos seeds produced identical aggregate stats")
	}
}

// TestChaosOnlyAddsTimeAndCounters: enabling the plan leaves every
// pre-existing statistic (lookups, messages, bytes by locality, cache
// counters) identical to the fault-free run — retransmissions are
// modelled as time and reliability counters, not as extra traffic in the
// locality statistics the paper's tables are built from.
func TestChaosOnlyAddsTimeAndCounters(t *testing.T) {
	base, stBase := runChaos(8, Inject{})
	chaos, stChaos := runChaos(8, Inject{ChaosSeed: 101, DropRate: 0.2})
	for i := 0; i < 8; i++ {
		b, c := base.RankStats(i), chaos.RankStats(i)
		// Zero the reliability counters on the chaos side; the rest must match.
		c.Drops, c.Retries, c.Dups, c.RedeliveredBytes = 0, 0, 0, 0
		if b != c {
			t.Fatalf("rank %d locality stats changed under chaos:\nbase  %+v\nchaos %+v", i, b, c)
		}
	}
	if stChaos.Virtual <= stBase.Virtual {
		t.Fatalf("chaos run not slower than baseline: %v <= %v", stChaos.Virtual, stBase.Virtual)
	}
}

// TestChaosComposesWithPerturb: the chaos schedule is drawn in rank-local
// program order, so layering schedule perturbation on top must not change
// virtual time or any statistic for this deterministic workload.
func TestChaosComposesWithPerturb(t *testing.T) {
	plan := Inject{ChaosSeed: 101, DropRate: 0.1}
	teamA, stA := runChaos(8, plan)
	plan.PerturbSeed = 9
	teamB, stB := runChaos(8, plan)
	if stA.Virtual != stB.Virtual {
		t.Fatalf("perturbation changed chaos virtual time: %v vs %v", stA.Virtual, stB.Virtual)
	}
	for i := 0; i < 8; i++ {
		if teamA.RankStats(i) != teamB.RankStats(i) {
			t.Fatalf("rank %d stats differ under perturbation:\n%+v\n%+v",
				i, teamA.RankStats(i), teamB.RankStats(i))
		}
	}
}

// TestChaosRetryExhaustion: a channel that never delivers (drop rate 1)
// exhausts its budget and unwinds the team with a typed
// *RetryExhaustedError; the team is dead afterwards.
func TestChaosRetryExhaustion(t *testing.T) {
	team := NewTeam(Config{Ranks: 4, RanksPerNode: 2, Seed: 3,
		Inject: Inject{ChaosSeed: 7, DropRate: 1.0, RetryBudget: 3}})
	reached := make([]bool, 4)
	ree := runWithRetryRecover(t, func() {
		team.Run(func(r *Rank) {
			for i := 0; i < 100; i++ {
				r.ChargeLookup((r.ID+1)%4, 64)
				if i%10 == 0 {
					r.Barrier()
				}
			}
			reached[r.ID] = true
		})
	})
	if ree == nil {
		t.Fatal("Run returned normally, want *RetryExhaustedError panic")
	}
	if ree.Seed != 7 || ree.Attempts != 4 {
		t.Fatalf("RetryExhaustedError = %+v, want seed 7, attempts = budget+1 = 4", ree)
	}
	if ree.Src == ree.Dst || ree.Src < 0 || ree.Src >= 4 || ree.Dst < 0 || ree.Dst >= 4 {
		t.Fatalf("implausible channel in %+v", ree)
	}
	if team.TripVirtual() <= 0 {
		t.Fatal("TripVirtual() = 0 after retry exhaustion")
	}
	for id, ok := range reached {
		if ok {
			t.Fatalf("rank %d completed the body despite retry exhaustion", id)
		}
	}
	// The dead team surfaces the same typed error on the next phase.
	ree2 := runWithRetryRecover(t, func() {
		team.Run(func(r *Rank) { r.Charge(1) })
	})
	if ree2 == nil || ree2.Src != ree.Src || ree2.Seq != ree.Seq {
		t.Fatalf("post-trip Run: got %+v, want same *RetryExhaustedError", ree2)
	}
}

// tripRecord is what a dead team reports of the trip that killed it.
type tripRecord struct {
	clock time.Duration
	rank  int
	text  string
}

// runToTrip runs body on a fresh team armed with inj, inside span "x"
// (where a crash with that FailStage arms), and returns the recorded
// trip, ok = false if the team survived.
func runToTrip(t *testing.T, ranks int, inj Inject, body func(r *Rank)) (rec tripRecord, ok bool) {
	t.Helper()
	team := NewTeam(Config{Ranks: ranks, RanksPerNode: 4, Seed: 3, Inject: inj})
	team.BeginSpan("x")
	defer func() {
		switch e := recover().(type) {
		case nil:
		case *RetryExhaustedError:
			rec, ok = tripRecord{team.TripVirtual(), e.Src, e.Error()}, true
		case *FaultError:
			rec, ok = tripRecord{team.TripVirtual(), e.Rank, e.Error()}, true
		default:
			panic(e)
		}
	}()
	team.Run(body)
	return rec, false
}

// TestRetryExhaustionTripIsLeastClock: under the harsh plan the service
// arms (every message dies with p = 0.25) several ranks exhaust between the
// same two barriers, each at a point of its own program; the trip a team
// reports must be the least (own clock, rank) of them whichever goroutine
// gets there first. The free-running workloads check that against each
// rank's trip measured alone — the second with a crash armed whose victim
// dies on its first charge, before anyone exhausts; the collective one has
// every rank leave a barrier on one clock and exhaust in the latency tree.
func TestRetryExhaustionTripIsLeastClock(t *testing.T) {
	const ranks = 8
	harsh := Inject{ChaosSeed: 11, DropRate: 0.5, RetryBudget: 1}
	lookups := func(r *Rank) {
		r.Charge(1) // where a crash that counts down one charge lands
		for i := 0; i < 400; i++ {
			r.ChargeLookup((r.ID+1+i%(ranks-1))%ranks, 64)
		}
	}
	// leastAlone is the least trip over the ranks run one at a time.
	leastAlone := func(inj Inject) (least tripRecord) {
		tripping := 0
		for id := 0; id < ranks; id++ {
			alone, ok := runToTrip(t, ranks, inj, func(r *Rank) {
				if r.ID == id {
					lookups(r)
				}
			})
			if !ok {
				continue
			}
			if alone.rank != id {
				t.Fatalf("rank %d alone: trip names rank %d", id, alone.rank)
			}
			if tripping++; tripping == 1 || alone.clock < least.clock {
				least = alone
			}
		}
		if tripping < 2 {
			t.Fatalf("%d ranks trip alone; the test needs at least 2", tripping)
		}
		return least
	}
	exhausted := leastAlone(harsh)
	countsDownOne := harsh
	countsDownOne.FaultSeed, countsDownOne.FailStage = 346, "x"
	crashed := leastAlone(countsDownOne)
	if crashed.rank != countsDownOne.Victim(ranks) || crashed.clock >= exhausted.clock {
		t.Fatalf("least trip with the crash armed is %+v: want the victim's, before %+v", crashed, exhausted)
	}

	collective := func(r *Rank) {
		for i := 0; i < 50; i++ {
			r.ChargeLookup((r.ID+1)%ranks, 64*(r.ID+1))
			r.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
		}
	}
	for _, w := range []struct {
		name string
		inj  Inject
		body func(r *Rank)
		want *tripRecord
	}{
		{"free-running", harsh, lookups, &exhausted},
		{"free-running, crash armed", countsDownOne, lookups, &crashed},
		{"collective", harsh, collective, nil},
	} {
		for seed := int64(0); seed < 20; seed++ {
			inj := w.inj
			inj.PerturbSeed = seed
			got, ok := runToTrip(t, ranks, inj, w.body)
			if !ok {
				t.Fatalf("%s, perturb seed %d: the team survived", w.name, seed)
			}
			if w.want == nil {
				w.want = &got
			}
			if got != *w.want {
				t.Fatalf("%s, perturb seed %d: trip %+v, want %+v", w.name, seed, got, *w.want)
			}
		}
	}
}

// runWithRetryRecover runs fn and returns the *RetryExhaustedError it
// panics with (nil if it returns normally).
func runWithRetryRecover(t *testing.T, fn func()) (ree *RetryExhaustedError) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			var ok bool
			if ree, ok = p.(*RetryExhaustedError); !ok {
				t.Fatalf("panic value %T (%v), want *RetryExhaustedError", p, p)
			}
		}
	}()
	fn()
	return nil
}

// TestChaosSeedStreamsDecorrelated: per-rank chaos streams must differ
// from each other and from the same rank's delay stream under the same
// seed.
func TestChaosSeedStreamsDecorrelated(t *testing.T) {
	a := NewPrng(chaosSeed(9, 0))
	b := NewPrng(chaosSeed(9, 1))
	delay := NewPrng(perturbSeed(9, 0))
	same := 0
	for i := 0; i < 64; i++ {
		x := a.Uint64()
		if x == b.Uint64() {
			same++
		}
		if x == delay.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("chaos streams collide %d times in 64 draws", same)
	}
}

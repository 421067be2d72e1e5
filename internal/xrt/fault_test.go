package xrt

import (
	"testing"
)

// runWithFaultRecover runs fn and returns the *FaultError it panics
// with (nil if it returns normally).
func runWithFaultRecover(t *testing.T, fn func()) (fe *FaultError) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			var ok bool
			if fe, ok = p.(*FaultError); !ok {
				t.Fatalf("panic value %T, want *FaultError", p)
			}
		}
	}()
	fn()
	return nil
}

func TestFaultSeedDeterminism(t *testing.T) {
	p := Inject{FaultSeed: 42, FailStage: "contig-generation"}
	for i := 0; i < 3; i++ {
		if v := p.Victim(16); v != p.Victim(16) || v < 0 || v >= 16 {
			t.Fatalf("victim not deterministic/in-range: %d", v)
		}
		if n := p.AfterCharges(); n != p.AfterCharges() || n < 1 || n > 256 {
			t.Fatalf("after-charges not deterministic/in-range: %d", n)
		}
	}
	// Different seeds should pick different crash points at least sometimes.
	q := Inject{FaultSeed: 43, FailStage: p.FailStage}
	if p.Victim(1024) == q.Victim(1024) && p.AfterCharges() == q.AfterCharges() {
		t.Fatal("adjacent seeds map to identical victim and charge point")
	}
}

// TestFaultCrashUnwindsTeam arms a crash on its span and drives every rank
// through a charge loop with barriers: the victim must crash at its
// countdown, survivors (including ranks parked at the poisoned barrier)
// must unwind, and Team.Run must surface a typed *FaultError naming the
// victim. The team is dead afterwards: the next Run fails the same way.
func TestFaultCrashUnwindsTeam(t *testing.T) {
	inj := Inject{FaultSeed: 7, FailStage: "stage-x"}
	team := NewTeam(Config{Ranks: 8, RanksPerNode: 4, Seed: 1, Inject: inj})
	team.BeginSpan("stage-x")

	reached := make([]bool, 8)
	fe := runWithFaultRecover(t, func() {
		team.Run(func(r *Rank) {
			for i := 0; i < 1000; i++ {
				r.Charge(100)
				if i%10 == 0 {
					r.Barrier()
				}
			}
			reached[r.ID] = true
		})
	})
	if fe == nil {
		t.Fatal("Run returned normally, want *FaultError panic")
	}
	if fe.Rank != inj.Victim(8) || fe.Stage != "stage-x" || fe.Seed != 7 {
		t.Fatalf("FaultError = %+v, want victim %d stage-x seed 7", fe, inj.Victim(8))
	}
	if team.TripVirtual() <= 0 {
		t.Fatal("TripVirtual() = 0 after crash")
	}
	for id, ok := range reached {
		if ok {
			t.Fatalf("rank %d completed the body despite the injected crash", id)
		}
	}

	// Closing the span leaves a tripped crash fatal: the team refuses
	// further phases with the same typed error.
	team.EndSpan()
	fe2 := runWithFaultRecover(t, func() {
		team.Run(func(r *Rank) { r.Charge(1) })
	})
	if fe2 == nil || fe2.Rank != fe.Rank {
		t.Fatalf("post-crash Run: got %+v, want same *FaultError", fe2)
	}
}

// TestSpanArmsCrash: the crash is armed by the span its FailStage names
// and nothing else. The same charges made outside that span, inside
// another one or under a nested span of the same name never trip; a span
// that closes before the countdown leaves the team usable for the next
// phase; inside the span the victim dies in exactly its countdown-th
// charge.
func TestSpanArmsCrash(t *testing.T) {
	const ranks, charges = 4, 300 // more than any countdown (1..256)
	inj := Inject{FailStage: "a"}
	for inj.FaultSeed = 1; inj.AfterCharges() < 2; inj.FaultSeed++ {
	}
	team := NewTeam(Config{Ranks: ranks, RanksPerNode: 2, Seed: 1, Inject: inj})
	victim, countdown := inj.Victim(ranks), inj.AfterCharges()
	made := make([]int64, ranks)
	chargeN := func(n int64) {
		team.Run(func(r *Rank) {
			for i := int64(0); i < n; i++ {
				r.Charge(10)
				made[r.ID]++
			}
			r.Barrier()
		})
	}

	chargeN(charges)
	team.BeginSpan("b")
	chargeN(charges)
	team.BeginSpan("a") // path "b/a"
	chargeN(charges)
	team.EndSpan()
	team.EndSpan()

	// Span a closes one charge short of the countdown: the next phase,
	// outside it, runs every charge.
	team.BeginSpan("a")
	chargeN(countdown - 1)
	team.EndSpan()
	chargeN(charges)
	if team.TripVirtual() != 0 {
		t.Fatalf("a charge outside span a tripped the team at %v", team.TripVirtual())
	}

	team.BeginSpan("a")
	clear(made)
	fe := runWithFaultRecover(t, func() { chargeN(charges) })
	if fe == nil || fe.Rank != victim || fe.Stage != "a" {
		t.Fatalf("Run in span a panicked with %+v, want the *FaultError of rank %d in a", fe, victim)
	}
	if made[victim] != countdown-1 {
		t.Fatalf("victim completed %d charges in span a, want to die in charge %d", made[victim], countdown)
	}
}

// TestFaultDisarm verifies an armed-but-unfired crash is disarmed when
// its span closes: a stage whose ranks never reach the countdown
// completes normally, and later phases run at full charge volume unharmed.
func TestFaultDisarm(t *testing.T) {
	team := NewTeam(Config{Ranks: 4, RanksPerNode: 2, Seed: 1, Inject: Inject{FaultSeed: 99, FailStage: "quiet"}})
	team.BeginSpan("quiet")
	// No charges at all: the countdown cannot fire.
	team.Run(func(r *Rank) {})
	team.EndSpan()
	done := make([]bool, 4)
	team.Run(func(r *Rank) {
		for i := 0; i < 2000; i++ {
			r.Charge(10)
		}
		r.Barrier()
		done[r.ID] = true
	})
	for id, ok := range done {
		if !ok {
			t.Fatalf("rank %d did not finish after disarm", id)
		}
	}
}

// TestFaultVictimDistribution: different seeds must spread crashes over
// ranks, so a sweep over seeds exercises different victims.
func TestFaultVictimDistribution(t *testing.T) {
	seen := map[int]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		seen[Inject{FaultSeed: seed, FailStage: "s"}.Victim(8)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("32 seeds hit only %d of 8 ranks", len(seen))
	}
}

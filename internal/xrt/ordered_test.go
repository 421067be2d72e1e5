package xrt

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestOrderedRunsBodiesInRankOrder: under any schedule perturbation the
// bodies of a section run one at a time in rank order (the shared slice is
// appended to with no lock of its own — the race detector checks the
// exclusion), across several sections of one phase and across phases; the
// start gate keeps at most `window` ranks between it and the section's
// exit; and none of it moves the virtual clock.
func TestOrderedRunsBodiesInRankOrder(t *testing.T) {
	const ranks, window = 16, 3
	for seed := int64(0); seed < 4; seed++ {
		team := NewTeam(Config{Ranks: ranks, RanksPerNode: 4, Inject: Inject{PerturbSeed: seed}})
		for phase := 0; phase < 2; phase++ {
			var order []int
			var inside, most atomic.Int32
			team.Run(func(r *Rank) {
				for section := 0; section < 2; section++ {
					r.AwaitOrdered(r.ID - window + 1)
					n := inside.Add(1)
					for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
					}
					r.PerturbPoint(PerturbStart) // a rank-specific delay when armed
					r.Ordered(func() {
						order = append(order, r.ID)
						inside.Add(-1)
					})
				}
			})
			if len(order) != 2*ranks {
				t.Fatalf("seed %d phase %d: %d bodies ran, want %d", seed, phase, len(order), 2*ranks)
			}
			for i, id := range order {
				if id != i%ranks {
					t.Fatalf("seed %d phase %d: body %d ran on rank %d: %v", seed, phase, i, id, order)
				}
			}
			if m := most.Load(); m > window {
				t.Fatalf("seed %d phase %d: %d ranks were past the gate at once, window is %d", seed, phase, m, window)
			}
		}
		if v := team.VirtualNow(); v != 0 {
			t.Fatalf("seed %d: ordered sections advanced virtual time to %v", seed, v)
		}
	}
}

// TestOrderedCrashReleasesWaiters: rank 1 crashes before taking its turn
// while every higher rank is — or is about to be — parked, some inside
// Ordered waiting for it and the rest at the gate. Nobody may hang (the
// test timeout is the detector) and the team unwinds with the usual typed
// error. Rank 0, below the victim, completes.
func TestOrderedCrashReleasesWaiters(t *testing.T) {
	const ranks, window = 16, 4
	inj := Inject{FailStage: "fold"}
	for inj.FaultSeed = 1; inj.Victim(ranks) != 1; inj.FaultSeed++ {
	}
	team := NewTeam(Config{Ranks: ranks, RanksPerNode: 4, Inject: inj})
	team.BeginSpan("fold")
	var arrived atomic.Int32
	var rank0Done bool
	fe := runWithFaultRecover(t, func() {
		team.Run(func(r *Rank) {
			if r.ID == inj.Victim(ranks) {
				for arrived.Load() < ranks-1 {
					runtime.Gosched()
				}
				for {
					r.Charge(1) // the countdown trips within 256 charges
				}
			}
			arrived.Add(1)
			r.AwaitOrdered(r.ID - window + 1)
			r.Ordered(func() { rank0Done = r.ID == 0 })
			if r.ID != 0 {
				t.Errorf("rank %d took its turn after rank 1 died", r.ID)
			}
		})
	})
	if fe == nil || fe.Rank != 1 || fe.Stage != "fold" {
		t.Fatalf("Run panicked with %+v, want the *FaultError of rank 1 in stage fold", fe)
	}
	if !rank0Done {
		t.Fatal("rank 0 never ran its body")
	}
}

package xrt

import (
	"errors"
	"reflect"
	"testing"
)

// TestRunEventsStepsInClockOrder: ranks charging different amounts per
// step must be stepped in nondecreasing (clock, rank id) order, each until
// it is Done, and the phase must report what a Run of the same charges
// would: the critical path, and every clock synchronized to it.
func TestRunEventsStepsInClockOrder(t *testing.T) {
	team := NewTeam(Config{Ranks: 5, RanksPerNode: 2})
	type at struct {
		clock float64
		id    int
	}
	var order []at
	steps := make([]int, 5)
	ps := team.RunEvents(func(_ *Events, r *Rank) Status {
		order = append(order, at{r.ClockNs(), r.ID})
		r.Charge(float64(100 * (1 + r.ID%3))) // ranks 0 and 3 tie all the way
		if steps[r.ID]++; steps[r.ID] == 20 {
			return Done
		}
		return Ready
	})
	if len(order) != 5*20 {
		t.Fatalf("%d steps, want %d", len(order), 5*20)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.clock > b.clock || a.clock == b.clock && a.id >= b.id {
			t.Fatalf("step %d at (%.0f, rank %d) follows (%.0f, rank %d)", i, b.clock, b.id, a.clock, a.id)
		}
	}
	if ps.Virtual != 20*300 || team.VirtualNow() != 20*300 {
		t.Fatalf("phase took %d ns, team clock %d, want %d", ps.Virtual, team.VirtualNow(), 20*300)
	}
	for id := 0; id < 5; id++ {
		if w := team.RankWorkNs(id); w != float64(20*100*(1+id%3)) {
			t.Fatalf("rank %d worked %.0f ns", id, w)
		}
	}
}

// TestRunEventsAllReduce: an all-reduce completes only once every rank
// has arrived, every rank reads its total, and it is charged exactly as
// AllReduceInt64 charges a Run.
func TestRunEventsAllReduce(t *testing.T) {
	team := NewTeam(Config{Ranks: 3, RanksPerNode: 3})
	stage := make([]int, 3)
	sums := make([]int64, 3)
	team.RunEvents(func(ev *Events, r *Rank) Status {
		stage[r.ID]++
		switch stage[r.ID] {
		case 1:
			r.Charge([]float64{50, 200, 800}[r.ID])
			return Ready
		case 2:
			return ev.AllReduceSum(int64(10 + r.ID))
		}
		sums[r.ID] = ev.Sum()
		return Done
	})
	for id, sum := range sums {
		if sum != 10+11+12 {
			t.Fatalf("rank %d read the all-reduce as %d", id, sum)
		}
	}
	// the same charges under Run, the all-reduce a real one
	ref := NewTeam(Config{Ranks: 3, RanksPerNode: 3})
	ref.Run(func(r *Rank) {
		r.Charge([]float64{50, 200, 800}[r.ID])
		r.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
	})
	if team.VirtualNow() != ref.VirtualNow() || !reflect.DeepEqual(team.AggStats(), ref.AggStats()) {
		t.Fatalf("event loop ended at %d ns, Run at %d ns", team.VirtualNow(), ref.VirtualNow())
	}
	for id := 0; id < 3; id++ {
		if team.RankWorkNs(id) != ref.RankWorkNs(id) {
			t.Fatalf("rank %d worked %.0f ns, under Run %.0f", id, team.RankWorkNs(id), ref.RankWorkNs(id))
		}
	}
}

// TestRunEventsStallPanics: a phase in which no rank can step — one
// waiting at an all-reduce that a finished rank will never reach — is a
// bug in the stepper, reported at once rather than hung on.
func TestRunEventsStallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a stalled event loop returned")
		}
	}()
	NewTeam(Config{Ranks: 2}).RunEvents(func(ev *Events, r *Rank) Status {
		if r.ID == 0 {
			return ev.AllReduceSum(1)
		}
		return Done
	})
}

// TestRunEventsFaultUnwinds: an armed crash whose countdown lands inside
// an event-loop phase surfaces as Run's typed *FaultError, at the same
// victim and trip clock every time, and leaves the team dead; so does a
// retry exhaustion.
func TestRunEventsFaultUnwinds(t *testing.T) {
	inj := Inject{FaultSeed: 7, FailStage: "stage-x"}
	crash := func() (*FaultError, *Team) {
		team := NewTeam(Config{Ranks: 8, RanksPerNode: 4, Seed: 1, Inject: inj})
		team.BeginSpan("stage-x")
		return runWithFaultRecover(t, func() {
			team.RunEvents(func(_ *Events, r *Rank) Status {
				r.ChargeLookup((r.ID+1)%8, 24)
				return Ready
			})
		}), team
	}
	fe, team := crash()
	if fe == nil || fe.Rank != inj.Victim(8) || fe.Stage != "stage-x" {
		t.Fatalf("FaultError = %+v, want victim %d in stage-x", fe, inj.Victim(8))
	}
	if _, again := crash(); again.TripVirtual() != team.TripVirtual() || team.TripVirtual() <= 0 {
		t.Fatalf("trip clocks %d and %d: want equal and positive", team.TripVirtual(), again.TripVirtual())
	}
	if fe2 := runWithFaultRecover(t, func() {
		team.RunEvents(func(*Events, *Rank) Status { return Done })
	}); fe2 == nil || fe2.Rank != fe.Rank {
		t.Fatalf("post-crash RunEvents: got %+v, want the same *FaultError", fe2)
	}

	lossy := NewTeam(Config{Ranks: 4, RanksPerNode: 2,
		Inject: Inject{ChaosSeed: 3, DropRate: 0.9, RetryBudget: 2}})
	defer func() {
		var re *RetryExhaustedError
		if err, _ := recover().(error); !errors.As(err, &re) || lossy.TripVirtual() <= 0 {
			t.Fatalf("lossy event loop: recovered %v, want *RetryExhaustedError", err)
		}
	}()
	lossy.RunEvents(func(_ *Events, r *Rank) Status {
		r.ChargeLookup((r.ID+1)%4, 24)
		return Ready
	})
}

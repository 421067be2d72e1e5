// The event loop: the other way to run a phase. Team.Run gives every rank
// a goroutine and lets the Go scheduler interleave them, which is right
// wherever ranks meet only at barriers and in commutative stores. Where
// they contend — a speculative protocol whose outcome depends on who
// reaches a vertex first — the interleaving must be the simulated
// machine's: RunEvents runs the phase on the calling goroutine and always
// steps the rank whose virtual clock is least, ties to the lower rank id (a
// conservative discrete-event simulation with no lookahead), so effects
// apply in virtual-time order and the phase is a function of its input.
package xrt

// Status is what a rank's step tells the loop about the rank's next one.
type Status int

const (
	Ready      Status = iota // step the rank again once its clock is the least
	Collective               // the rank has arrived at an all-reduce (see AllReduceSum)
	Done                     // the rank's part of the phase is over
)

// Events is the loop's handle inside a step.
type Events struct {
	t        *Team
	ready    []*Rank // min-heap by (clock, ID); the root is the rank being stepped
	acc, sum int64   // the all-reduce being arrived at; the last one's result
}

// RunEvents is Run for phases in which ranks contend: step is called for
// one rank at a time, in (clock, rank id) order, each call making one
// shared-state operation and the charges that go with it. Phase statistics,
// clock synchronization, span deltas and crash / retry-exhaustion unwinding
// are Run's. No perturbation point is visited: no schedule to perturb.
func (t *Team) RunEvents(step func(ev *Events, r *Rank) Status) PhaseStats {
	return t.phase(func() {
		if t.mayTrip() {
			defer recoverFaultCrash()
		}
		ev := &Events{t: t}
		ev.run(step)
	})
}

func (ev *Events) run(step func(ev *Events, r *Rank) Status) {
	t := ev.t
	ev.push(t.ranks)
	arrived, done := 0, 0
	for done < len(t.ranks) {
		if len(ev.ready) == 0 {
			if arrived != len(t.ranks) {
				panic("xrt: event loop stalled: no rank can step")
			}
			// AllReduceInt64's charges: barrier, latency tree, barrier
			t.syncClocks()
			for _, r := range t.ranks {
				r.chargeCollective()
			}
			t.syncClocks()
			ev.sum, ev.acc, arrived = ev.acc, 0, 0
			ev.push(t.ranks)
			continue
		}
		// The rank keeps stepping while it is still the least: the common
		// step costs two comparisons, not a heap operation.
		r := ev.ready[0]
		st := step(ev, r)
		for st == Ready && ev.leads() {
			st = step(ev, r)
		}
		switch st {
		case Collective:
			arrived++
		case Done:
			done++
		}
		if last := len(ev.ready) - 1; st != Ready {
			ev.ready[0] = ev.ready[last]
			ev.ready = ev.ready[:last]
		}
		ev.siftDown(0)
	}
}

// AllReduceSum is the calling rank's arrival at an all-reduce of v under
// addition, charged as AllReduceInt64 is. The step returns its result; once
// every rank has arrived all are Ready on one clock, and their steps read
// the total from Sum until another all-reduce completes.
func (ev *Events) AllReduceSum(v int64) Status {
	ev.acc += v
	return Collective
}

// Sum returns the result of the last completed all-reduce.
func (ev *Events) Sum() int64 { return ev.sum }

func before(a, b *Rank) bool {
	ca, cb := a.clock(), b.clock()
	return ca < cb || ca == cb && a.ID < b.ID
}

// leads reports whether the root still precedes both of its children.
func (ev *Events) leads() bool {
	h := ev.ready
	return (len(h) < 2 || before(h[0], h[1])) && (len(h) < 3 || before(h[0], h[2]))
}

// push adds ranks to the heap and restores its order.
func (ev *Events) push(rs []*Rank) {
	if len(rs) == 0 {
		return
	}
	ev.ready = append(ev.ready, rs...)
	for i := len(ev.ready)/2 - 1; i >= 0; i-- {
		ev.siftDown(i)
	}
}

func (ev *Events) siftDown(i int) {
	for h := ev.ready; ; {
		c := 2*i + 1
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if c >= len(h) || !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

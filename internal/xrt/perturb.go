// Schedule perturbation: a seeded layer that injects deterministic
// *physical* delays at the synchronization points of an SPMD run — rank
// start, barrier arrival, and per-rank buffer flushes — without touching
// virtual time or communication statistics. Sweeping Inject.PerturbSeed
// explores adversarial goroutine interleavings of what still runs one
// goroutine per rank (Team.Run): DHT flushes racing lookups, the
// freeze/thaw phase discipline, stage 1's inbox hand-off. The one protocol whose outcome used to follow the
// interleaving, the contig claim/abort traversal, runs under RunEvents
// and has no physical schedule to explore. Every run remains
// reproducible: for a fixed seed each rank draws its delay sequence from
// a private generator in rank-local program order.
//
// The intended use is metamorphic testing (see internal/verify,
// internal/metrics): the assembly and every non-wall field of its report
// must be bit-identical under every perturbation seed, a property the
// race detector and CI exercise on every run. To reproduce a failure,
// re-run with the same Config (Ranks, Seed, Inject.PerturbSeed) — the delay
// schedule is part of the configuration, not of the runtime's mood.
package xrt

import (
	"runtime"
	"time"
)

// PerturbPoint classifies where in the runtime a perturbation is applied.
type PerturbPoint int

const (
	// PerturbStart is drawn once per rank at the top of each Run phase,
	// jittering rank start times.
	PerturbStart PerturbPoint = iota
	// PerturbBarrier is drawn immediately before a rank arrives at a
	// barrier, reordering barrier arrival.
	PerturbBarrier
	// PerturbFlush is drawn before a rank drains one aggregation buffer
	// (the dht layer calls this), delaying per-rank flushes.
	PerturbFlush
)

// perturbJitterNs caps the uniformly drawn delay per point class: 200µs
// at a phase start, 50µs before a barrier, 20µs before a flush.
var perturbJitterNs = [...]int64{PerturbStart: 200_000, PerturbBarrier: 50_000, PerturbFlush: 20_000}

// perturbSeed derives the per-rank delay-stream seed, a function of
// Inject.PerturbSeed and the rank alone.
func perturbSeed(seed int64, rank int) int64 {
	return int64(Splitmix64(uint64(seed)^0x7e57ab1e) + uint64(rank)*0x9e3779b97f4a7c15)
}

// PerturbPoint injects the armed delay for point class pt. It is a no-op
// without Inject.PerturbSeed. Only physical time passes: the
// virtual clock and the communication statistics are untouched.
func (r *Rank) PerturbPoint(pt PerturbPoint) {
	if r.pert == nil {
		return
	}
	spinDelay(int64(r.pert.Uint64() % uint64(perturbJitterNs[pt])))
}

// spinDelay blocks for roughly ns of wall time. Short delays yield the
// processor instead of sleeping: the goal is to hand the scheduler
// different interleavings, not to burn precise wall time.
func spinDelay(ns int64) {
	switch {
	case ns < 2_000:
		for i := int64(0); i <= ns/500; i++ {
			runtime.Gosched()
		}
	default:
		time.Sleep(time.Duration(ns))
	}
}

// Deterministic fault injection. An injected crash is the failure-side
// companion of schedule perturbation: where perturbation proves the
// assembly is schedule-independent, a crash proves the pipeline's
// checkpoint/restart path is crash-consistent. Inject.FaultSeed picks one
// victim rank and a charge-event countdown, both derived from the seed
// alone, so a given (seed, stage, team size) always crashes the same rank
// at the same point of the same stage — a crash that reproduces under
// `go test -run`.
//
// Arming: the team arms the countdown itself when a span whose Path is
// Inject.FailStage opens (BeginSpan) — the pipeline opens one top-level
// span per stage, named after it — and the matching EndSpan disarms a
// countdown that has not tripped. A tripped crash stays fatal.
//
// Crash mechanics: when the victim's countdown reaches zero inside a
// charge, the victim records the trip, poisons the team barrier, and
// panics with a private sentinel. Survivors notice at a charge once their
// own clock has reached the trip's, or at the barrier, and panic with the
// same sentinel; Team.Run recovers the sentinel on each rank goroutine
// (RunEvents on its only one), joins, and re-panics on the orchestrator
// goroutine with a typed *FaultError that pipeline code can recover and
// convert into a StageFailedError. The team is dead after a trip: any
// further phase panics with the same error.
//
// Which trip a team died of is a function of the input, not of the Go
// scheduler: a retry exhaustion (chaos.go) trips the same way, several
// ranks can get there between two barriers, and the one recorded is the
// least (own clock, rank id) among them — see Rank.trip.
package xrt

import "fmt"

// Victim returns the rank the armed crash kills in a team of the given
// size.
func (in Inject) Victim(ranks int) int {
	return int(Splitmix64(uint64(in.FaultSeed)^0xfa017c4a5) % uint64(ranks))
}

// AfterCharges returns how many charge events the victim executes inside
// the armed stage before crashing. The range is kept small (1..256) so
// the crash lands early in any stage of any realistic dataset.
func (in Inject) AfterCharges() int64 {
	return int64(1 + Splitmix64(uint64(in.FaultSeed)*0x9e3779b97f4a7c15+0xfa017)%256)
}

// faultCrash is the sentinel a crashing rank panics with. It never
// escapes the package: rank goroutines recover it, and the orchestrator
// re-panics with *FaultError.
type faultCrash struct{}

// recoverFaultCrash swallows the crash sentinel and re-panics anything
// else (a genuine bug must still crash the process).
func recoverFaultCrash() {
	if p := recover(); p != nil {
		if _, ok := p.(faultCrash); !ok {
			panic(p)
		}
	}
}

// FaultError is the typed failure surfaced (as an orchestrator-goroutine
// panic from Team.Run) after an injected crash unwound the team.
type FaultError struct {
	// Stage is the armed stage (Inject.FailStage).
	Stage string
	// Rank is the victim.
	Rank int
	// Seed is Inject.FaultSeed, for reproduction.
	Seed int64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("xrt: injected fault: rank %d crashed in stage %q (fault seed %d)",
		e.Rank, e.Stage, e.Seed)
}

// armsCrash reports whether a span at path arms the crash countdown.
func (t *Team) armsCrash(path string) bool {
	return t.cfg.Inject.FaultSeed != 0 && path == t.cfg.Inject.FailStage
}

// armFault starts the victim's countdown; every rank begins checking for
// a trip. Called from BeginSpan, between phases.
func (t *Team) armFault() {
	t.faultOn = true
	t.ranks[t.cfg.Inject.Victim(t.cfg.Ranks)].faultCD = t.cfg.Inject.AfterCharges()
}

// disarmFault cancels an armed countdown that has not tripped (the stage
// outlived the countdown window without the victim reaching it). Called
// from EndSpan. A tripped fault stays fatal.
func (t *Team) disarmFault() {
	if t.faultTripped.Load() {
		return
	}
	t.faultOn = false
	for _, r := range t.ranks {
		r.faultCD = 0
	}
}

// mayTrip reports whether a phase can end in a trip: a crash is armed or
// the transport is lossy.
func (t *Team) mayTrip() bool { return t.faultOn || t.cfg.Inject.ChaosSeed != 0 }

func (t *Team) faultError() *FaultError {
	in := t.cfg.Inject
	return &FaultError{Stage: in.FailStage, Rank: in.Victim(t.cfg.Ranks), Seed: in.FaultSeed}
}

// faultPoint runs inside every charge while a fault is armed: the victim
// counts down and crashes at zero; every rank joins a trip it observes, so
// survivors unwind at a charge instead of waiting on a barrier the victim
// will never reach.
func (r *Rank) faultPoint() {
	if r.faultCD > 0 {
		r.faultCD--
		if r.faultCD == 0 {
			r.trip(r.team.faultError())
		}
	}
	r.joinTrip()
}

// trip kills the team from rank r: record the typed error and r's own
// clock, poison the barrier so blocked ranks unwind, and panic out of this
// rank with the crash sentinel. When several ranks trip between the same
// two barriers the record kept is the least (own clock, rank id) — each
// rank's own clock there is a function of its own program order (foreign
// charges fold at barriers), and joinTrip lets every rank that could
// still be the least get that far — so TripVirtual and the error do not
// depend on which goroutine ran first.
func (r *Rank) trip(err error) {
	t := r.team
	t.tripMu.Lock()
	if !t.faultTripped.Load() || r.beforeTrip() {
		t.tripClockNs, t.tripRank, t.tripErr = r.clockNs, r.ID, err
	}
	t.faultTripped.Store(true)
	t.tripMu.Unlock()
	t.bar.poison()
	panic(faultCrash{})
}

// beforeTrip reports whether r's (own clock, id) precedes the recorded
// trip's. The caller holds tripMu.
func (r *Rank) beforeTrip() bool {
	t := r.team
	return r.clockNs < t.tripClockNs || r.clockNs == t.tripClockNs && r.ID < t.tripRank
}

// joinTrip unwinds a rank that observes another rank's trip — unless its
// own clock is still below the trip's: it may yet trip earlier itself, so
// it keeps going until its clock reaches the record or it arrives at the
// poisoned barrier (past which every clock would be >= the trip's).
func (r *Rank) joinTrip() {
	t := r.team
	if !t.faultTripped.Load() {
		return
	}
	t.tripMu.Lock()
	before := r.beforeTrip()
	t.tripMu.Unlock()
	if !before {
		panic(faultCrash{})
	}
}

// Message-level fault simulation. A MessageFaultPlan is the transport-
// side companion of PerturbPlan (schedule noise) and FaultPlan (fail-stop
// crashes): it models a lossy network under every remote operation,
// together with the reliability layer that makes the pipeline survive it.
// Every logical message charged at ChargeLookup, ChargeStoreBatch, or a
// collective's tree steps runs an RPC-style protocol on a per-(src,dst)
// channel: a sequence number is assigned, drop decisions are drawn from a
// dedicated seeded per-rank stream, lost sends and lost acks cost a
// timeout plus capped exponential backoff with seeded jitter (charged as
// virtual time), a retransmission after a lost ack reaches a receiver that
// already applied the operation and is counted as a discarded duplicate,
// and a bounded retry budget converts a channel that never recovers into a
// typed *RetryExhaustedError that unwinds the team exactly like an
// injected crash (pipeline code maps it to StageFailedError; -ckpt-dir
// runs can resume from the last completed stage).
//
// Determinism contract: all chaos decisions derive from Seed via a
// per-rank stream drawn in rank-local program order, so for a fixed plan
// the drop schedule, the retry counters, and the virtual-time cost are
// reproducible — and because the layer only adds virtual time and
// counters, never reordering or altering what the operations apply, the
// assembly remains bit-identical to a fault-free run.
package xrt

import "fmt"

// chaosTimeoutNs is the virtual-time retransmission timeout (a few
// off-node message latencies); retry k backs off to
// chaosTimeoutNs*2^min(k-1, chaosBackoffCapExp) plus seeded jitter.
const (
	chaosTimeoutNs     = 2_000.0
	chaosBackoffCapExp = 6
)

// collectiveMsgBytes is the nominal payload of one tree step of a small
// collective, used for redelivery accounting under a MessageFaultPlan.
const collectiveMsgBytes = 16

// MessageFaultPlan configures deterministic message-level fault
// injection: seed-derived drop decisions per logical remote message,
// absorbed by the runtime's reliable-channel protocol. The zero value
// disables the layer entirely.
type MessageFaultPlan struct {
	// Seed selects the drop schedule. 0 disables the plan.
	Seed int64
	// DropRate is the probability, per transmission, that a message (or
	// its ack) is lost and must be retransmitted after a timeout. Must
	// be in [0, 1).
	DropRate float64
	// RetryBudget bounds retransmissions per message; exceeding it
	// unwinds the team with a *RetryExhaustedError. Default 16.
	RetryBudget int
}

// Enabled reports whether the plan injects anything.
func (p MessageFaultPlan) Enabled() bool { return p.Seed != 0 }

func (p MessageFaultPlan) withDefaults() MessageFaultPlan {
	if !p.Enabled() {
		return p
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = 16
	}
	return p
}

// chaosSeed derives the per-rank chaos-stream seed, a function of the plan
// seed and the rank alone.
func chaosSeed(planSeed int64, rank int) int64 {
	return int64(Splitmix64(uint64(planSeed)^0xc4a05fa17) + uint64(rank)*0x9e3779b97f4a7c15)
}

// RetryExhaustedError is the typed failure surfaced (as an orchestrator-
// goroutine panic from Team.Run) when one message exceeded its retry
// budget under a MessageFaultPlan and the team unwound.
type RetryExhaustedError struct {
	// Src and Dst identify the channel whose message could not be
	// delivered; Src is the rank that unwound the team.
	Src, Dst int
	// Seq is the message's per-channel sequence number.
	Seq uint64
	// Attempts is how many transmissions were made before giving up.
	Attempts int
	// Seed is the chaos seed, for reproduction.
	Seed int64
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("xrt: retry budget exhausted: rank %d -> %d message %d undeliverable after %d attempts (chaos seed %d)",
		e.Src, e.Dst, e.Seq, e.Attempts, e.Seed)
}

// ChaosFired reports whether a message exceeded its retry budget and
// killed the team. Only meaningful between phases.
func (t *Team) ChaosFired() bool {
	_, ok := t.tripErr.(*RetryExhaustedError)
	return ok
}

// chaosPoint runs the reliable-channel protocol for one logical message
// from r to dst. No-op without an enabled MessageFaultPlan or for
// rank-local operations. Every draw comes from the rank's private chaos
// stream in rank-local program order; every failed transmission charges
// timeout+backoff to the sender's virtual clock and bumps the retry
// counters. The operation itself is applied exactly once by the caller
// after chaosPoint returns — duplicates exist only as counter traffic.
func (r *Rank) chaosPoint(dst, bytes int) {
	if r.chaos == nil || dst == r.ID {
		return
	}
	// Another rank may have unwound the team (retry exhaustion or injected
	// crash): join it instead of starting a new exchange.
	r.joinTrip()
	plan := &r.team.chaos
	seq := r.nextSeq[dst]
	r.nextSeq[dst]++
	attempt := 1
	delivered := false
	for {
		if r.chaos.Float64() < plan.DropRate {
			// Data message lost in flight: nothing reached the receiver.
			r.chaosRetry(dst, seq, bytes, &attempt)
			continue
		}
		if delivered {
			// A retransmission reached a receiver that already applied
			// the operation (its ack was lost); the receiver discards it.
			r.stats.Dups++
		}
		delivered = true
		if r.chaos.Float64() < plan.DropRate {
			// Ack lost: the sender cannot distinguish this from a lost
			// send and retransmits after the timeout.
			r.chaosRetry(dst, seq, bytes, &attempt)
			continue
		}
		return
	}
}

// chaosRetry charges one timeout + capped exponential backoff with
// seeded jitter and accounts the retransmission, unwinding the team when
// the budget is exhausted.
func (r *Rank) chaosRetry(dst int, seq uint64, bytes int, attempt *int) {
	plan := &r.team.chaos
	r.stats.Drops++
	if *attempt > plan.RetryBudget {
		// Kills the team the same way an injected crash does.
		r.trip(&RetryExhaustedError{Src: r.ID, Dst: dst, Seq: seq, Attempts: *attempt, Seed: plan.Seed})
	}
	exp := *attempt - 1
	if exp > chaosBackoffCapExp {
		exp = chaosBackoffCapExp
	}
	base := chaosTimeoutNs * float64(uint64(1)<<uint(exp))
	r.advance(base + r.chaos.Float64()*base*0.5)
	*attempt++
	r.stats.Retries++
	r.stats.RedeliveredBytes += int64(bytes)
}

// Message-level fault simulation. Inject.ChaosSeed arms the transport-
// side companion of schedule perturbation and fail-stop crashes: a lossy
// network under every remote operation, together with the reliability
// layer that makes the pipeline survive it.
// Every logical message charged at ChargeLookup, ChargeLookupBatch,
// ChargeStoreBatch, or a collective's tree steps runs an RPC-style protocol on a per-(src,dst)
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
// Determinism contract: all chaos decisions derive from ChaosSeed via a
// per-rank stream drawn in rank-local program order, so for a fixed seed
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
// collective, used for redelivery accounting under a lossy transport.
const collectiveMsgBytes = 16

// retryBudget is Inject.RetryBudget with its default applied: the
// retransmissions one message may take before the team unwinds.
func (in Inject) retryBudget() int {
	if in.RetryBudget <= 0 {
		return 16
	}
	return in.RetryBudget
}

// chaosSeed derives the per-rank chaos-stream seed, a function of
// Inject.ChaosSeed and the rank alone.
func chaosSeed(seed int64, rank int) int64 {
	return int64(Splitmix64(uint64(seed)^0xc4a05fa17) + uint64(rank)*0x9e3779b97f4a7c15)
}

// RetryExhaustedError is the typed failure surfaced (as an orchestrator-
// goroutine panic from Team.Run) when one message exceeded its retry
// budget on the lossy transport and the team unwound.
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

// chaosPoint runs the reliable-channel protocol for one logical message
// from r to dst. No-op without Inject.ChaosSeed or for rank-local
// operations. Every draw comes from the rank's private chaos stream in
// rank-local program order; every failed transmission charges
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
	dropRate := r.team.cfg.Inject.DropRate
	seq := r.nextSeq[dst]
	r.nextSeq[dst]++
	attempt := 1
	delivered := false
	for {
		if r.chaos.Float64() < dropRate {
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
		if r.chaos.Float64() < dropRate {
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
	in := &r.team.cfg.Inject
	r.stats.Drops++
	if *attempt > in.retryBudget() {
		// Kills the team the same way an injected crash does.
		r.trip(&RetryExhaustedError{Src: r.ID, Dst: dst, Seq: seq, Attempts: *attempt, Seed: in.ChaosSeed})
	}
	exp := *attempt - 1
	if exp > chaosBackoffCapExp {
		exp = chaosBackoffCapExp
	}
	base := chaosTimeoutNs * float64(uint64(1)<<uint(exp))
	r.ChargeComm(base + r.chaos.Float64()*base*0.5)
	*attempt++
	r.stats.Retries++
	r.stats.RedeliveredBytes += int64(bytes)
}

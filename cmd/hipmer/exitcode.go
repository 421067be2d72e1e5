package main

import (
	"errors"

	"hipmer/internal/ckpt"
	"hipmer/internal/pipeline"
	"hipmer/internal/sched"
	"hipmer/internal/xrt"
)

// The CLI's exit-code contract for Assemble errors. Usage errors exit 2
// before Assemble runs; success is 0. Exit 7 is shared with cmd/hipmerd:
// there it means one or more jobs were bounced by service admission
// control (unknown tenant, over-quota or oversize request, full queue) —
// the submission was refused, nothing ran and nothing is resumable.
// Exit 8 means the checkpoint directory is beyond self-healing — its
// manifest is missing or unparsable (segment damage alone never earns
// this; the scrub/heal path recomputes it); -scrub shares the code for
// the same condition.
const (
	exitRuntimeError        = 1
	exitInjectedCrash       = 3
	exitRetryExhausted      = 4
	exitFingerprintMismatch = 5
	exitAdmissionRejected   = 7
	exitUnrecoverableCkpt   = 8
)

// exitCodeFor maps an Assemble error onto the contract. Order matters:
// a retry exhaustion arrives wrapped in a StageFailedError, so it is
// tested first. The checkpoint refusals are typed sentinels from
// internal/ckpt: a fingerprint mismatch means "different config/input"
// (a rank-count change is never refused; it re-shards).
func exitCodeFor(err error) int {
	var re *xrt.RetryExhaustedError
	if errors.As(err, &re) {
		return exitRetryExhausted
	}
	var sf *pipeline.StageFailedError
	if errors.As(err, &sf) {
		return exitInjectedCrash
	}
	if errors.Is(err, ckpt.ErrFingerprintMismatch) {
		return exitFingerprintMismatch
	}
	if errors.Is(err, sched.ErrAdmissionRejected) {
		return exitAdmissionRejected
	}
	if errors.Is(err, ckpt.ErrUnrecoverableCkpt) {
		return exitUnrecoverableCkpt
	}
	return exitRuntimeError
}

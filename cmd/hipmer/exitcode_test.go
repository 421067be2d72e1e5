package main

import (
	"fmt"
	"testing"

	"hipmer/internal/ckpt"
	"hipmer/internal/pipeline"
	"hipmer/internal/sched"
	"hipmer/internal/xrt"
)

// TestExitCodeFor pins the CLI exit-code mapping on hand-built errors;
// cli_test.go drives the same contract through real runs.
func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"plain", fmt.Errorf("boom"), exitRuntimeError},
		{"injected-crash",
			&pipeline.StageFailedError{Stage: "scaffolding", Rank: 3,
				Err: &xrt.FaultError{Rank: 3}},
			exitInjectedCrash},
		{"retry-exhausted-wrapped-in-stage-failure",
			&pipeline.StageFailedError{Stage: "scaffolding", Rank: 3,
				Err: &xrt.RetryExhaustedError{Src: 3}},
			exitRetryExhausted},
		{"fingerprint-mismatch",
			fmt.Errorf("resuming: %w", ckpt.ErrFingerprintMismatch),
			exitFingerprintMismatch},
		// A bare ErrBadManifest (e.g. from a mid-run manifest rewrite) is
		// still exit 1; only the typed unrecoverable-checkpoint wrapper —
		// what Resume/Scrub return when the manifest is missing or
		// unparsable — earns the dedicated code.
		{"bad-manifest-is-a-runtime-error",
			fmt.Errorf("resuming: %w", ckpt.ErrBadManifest),
			exitRuntimeError},
		{"unrecoverable-ckpt",
			fmt.Errorf("resuming: %w", fmt.Errorf("%w: reading manifest: boom", ckpt.ErrUnrecoverableCkpt)),
			exitUnrecoverableCkpt},
		{"unrecoverable-ckpt-wrapping-bad-manifest",
			fmt.Errorf("%w: %w", ckpt.ErrUnrecoverableCkpt, ckpt.ErrBadManifest),
			exitUnrecoverableCkpt},
		{"admission-rejected",
			fmt.Errorf("job 3 (tenant t01): %w", sched.ErrAdmissionRejected),
			exitAdmissionRejected},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCodeFor(c.err); got != c.want {
				t.Fatalf("exitCodeFor(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
}

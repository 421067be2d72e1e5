package xrt

import (
	"fmt"
	"slices"
	"strings"
)

// Inject is the arming description of one run: which injections are
// on, and their seeds. It is the only place these knobs are declared —
// hipmer.Options, sched.JobSpec and the hipmerd job file embed it,
// sched.Attempt carries one, a run receives it through Config.Inject and
// every mechanism reads it from there. The mechanisms stay in their own
// files (perturb.go, fault.go, chaos.go, diskfault.go): a wall-clock
// delay, a countdown panic, a retry loop and a byte mangler share no
// logic, only this description and its pairing rules.
//
// The zero value arms nothing. No field may change what an assembly
// computes, so none is part of the checkpoint fingerprint.
type Inject struct {
	// PerturbSeed, when non-zero, enables deterministic schedule
	// perturbation (delayed rank starts, barrier arrivals and buffer
	// flushes; wall-clock only).
	PerturbSeed int64 `json:"perturb_seed,omitempty"`
	// FaultSeed, with FailStage, arms one rank crash partway through the
	// named stage (the team arms it on the span of that name, see
	// fault.go); the run returns a *pipeline.StageFailedError.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// FailStage names the stage the crash fires in (see
	// pipeline.StageNames).
	FailStage string `json:"fail_stage,omitempty"`
	// ChaosSeed, when non-zero, arms the unreliable-transport simulation:
	// every remote message may be dropped per DropRate and is carried by
	// the retry/backoff/dedup channel of chaos.go.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// DropRate is the per-transmission loss probability in [0,1);
	// requires ChaosSeed. 0 loses nothing even when chaos is armed.
	DropRate float64 `json:"drop_rate,omitempty"`
	// RetryBudget caps retransmissions per message before the run fails
	// with a *RetryExhaustedError (0 = the default, 16).
	RetryBudget int `json:"retry_budget,omitempty"`
	// DiskFaultSeed, with DiskFailStage, damages the checkpoint segment
	// the named stage writes (the kind cycles with the seed, see
	// Inject.Kind). The run itself completes bit-identically; a
	// later resume scrubs and recomputes. Needs a checkpoint directory.
	DiskFaultSeed int64 `json:"disk_fault_seed,omitempty"`
	// DiskFailStage names the checkpointable stage whose write is
	// damaged.
	DiskFailStage string `json:"disk_fail_stage,omitempty"`
}

// Disarmed returns the value a retry runs under: the failure injections
// off (the failure they stand for has happened), the schedule
// perturbation kept — it can only reorder wall-clock events, never fail
// or damage a run.
func (in Inject) Disarmed() Inject { return Inject{PerturbSeed: in.PerturbSeed} }

// Validate checks the pairing and range rules against the stage list of
// the run the value would arm (pipeline.StageNames) and whether that run
// checkpoints. Each knob is named by its cmd/hipmer flag; the job-file
// key is the same words with underscores.
func (in Inject) Validate(stages []string, haveCkptDir bool) error {
	if (in.FaultSeed != 0) != (in.FailStage != "") {
		return fmt.Errorf("-fault-seed and -fail-stage must be given together")
	}
	if in.FailStage != "" && !slices.Contains(stages, in.FailStage) {
		return fmt.Errorf("-fail-stage %q is not a stage of this run (-kmer-lens and -contigs-only shape the list: %s)",
			in.FailStage, strings.Join(stages, ", "))
	}
	if (in.DiskFaultSeed != 0) != (in.DiskFailStage != "") {
		return fmt.Errorf("-disk-fault-seed and -disk-fail-stage must be given together")
	}
	if in.DiskFailStage != "" {
		if !haveCkptDir {
			return fmt.Errorf("-disk-fault-seed requires -ckpt-dir (the fault damages a checkpoint write)")
		}
		// io has no save codec, so there is no segment write to damage.
		if in.DiskFailStage == "io" || !slices.Contains(stages, in.DiskFailStage) {
			return fmt.Errorf("-disk-fail-stage %q is not a checkpointable stage of this run (%s)",
				in.DiskFailStage, strings.Join(stages, ", "))
		}
	}
	if in.DropRate < 0 || in.DropRate >= 1 {
		return fmt.Errorf("-drop-rate must be in [0,1), got %g", in.DropRate)
	}
	if in.DropRate > 0 && in.ChaosSeed == 0 {
		return fmt.Errorf("-drop-rate requires -chaos-seed")
	}
	if in.RetryBudget < 0 {
		return fmt.Errorf("-retry-budget must be >= 0 (0 = the default, 16), got %d", in.RetryBudget)
	}
	return nil
}

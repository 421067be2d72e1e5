package sched

import (
	"errors"
	"fmt"
	"time"

	"hipmer/internal/ckpt"
	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// Attempt is the scheduler's dispatch decision for one runner
// invocation: the allocation, resume state, and the injections armed on
// this attempt (disarmed on retries).
type Attempt struct {
	JobID        int
	Attempt      int
	Ranks        int
	RanksPerNode int
	Resume       bool
	CkptDir      string
	// BilledDone lists the stages the billing model treats as already
	// completed (rehydrated) by this attempt: the billed prefix of a
	// failed attempt, or the truncation boundary of a preempted one. The
	// scheduler tracks it so billing never reads the physical checkpoint
	// — a failed attempt's manifest records whichever stages the real
	// goroutines happened to finish, which is schedule-dependent.
	BilledDone []string
	// Inject is what this attempt runs under: the spec's value, or its
	// Disarmed form once the job has been requeued after a failure. An
	// armed disk fault still lets the attempt complete bit-identically;
	// the damage surfaces only if a failure sends the job back to its
	// checkpoint, where the resume scrubs and recomputes — so billing
	// trims the requeued attempt's rehydration prefix to the stages
	// strictly before the disk stage (see trimBilledAt).
	Inject xrt.Inject
}

// StageMark records one completed stage of an attempt and its
// cumulative virtual end offset from the attempt's start; the scheduler
// uses the marks to truncate a preempted job's checkpoint to the stages
// finished by the preemption boundary.
type StageMark struct {
	Stage string
	End   time.Duration
}

// RunOutcome is what one runner invocation produced.
type RunOutcome struct {
	// Virtual is the attempt's billed duration (present for failures
	// too: the cluster was occupied until the crash unwound). The real
	// runner bills by the deterministic service accounting model (see
	// costmodel.go), not the measured team clock, so the service
	// timeline is reproducible.
	Virtual time.Duration
	// Measured is the team's measured virtual clock for the attempt
	// (the fault-trip clock for failed attempts) — the machine-model
	// ground truth the billing model approximates. Diagnostic only:
	// schedule-dependent phases make it vary across runs, so nothing
	// in the service report derives from it.
	Measured time.Duration
	// Failed marks a retryable failure (injected crash, chaos retry
	// exhaustion): the job checkpointed up to the failed stage and can
	// be requeued with -resume. Fatal marks everything else (a config or
	// checkpoint error); the scheduler fails the job terminally.
	Failed bool
	Fatal  bool
	// Err and FailedStage describe the failure.
	Err         string
	FailedStage string
	// Seqs and Metrics are the completed assembly and its
	// hipmer-metrics/v1 report (success only).
	Seqs    [][]byte
	Metrics *metrics.Report
	// Stages are the attempt's completed stages in order with cumulative
	// virtual end offsets (success only; used for preemption).
	Stages []StageMark
	// BilledDone is the billed completed-stage prefix the NEXT attempt
	// rehydrates (failures only); the scheduler passes it back in
	// Attempt.BilledDone on requeue.
	BilledDone []string
}

// Runner executes job attempts. The scheduler is generic over it so the
// property tests can drive thousands of synthetic jobs through a fake;
// PipelineRunner is the real thing.
type Runner interface {
	// Run executes one attempt to completion (the simulated machine runs
	// jobs atomically; the scheduler overlaps jobs in virtual time).
	Run(spec JobSpec, att Attempt) RunOutcome
	// Preempt rolls the job's checkpoint back to the given completed-
	// stage prefix so a later attempt resumes from the preemption
	// boundary instead of the attempt's end.
	Preempt(jobID int, ckptDir string, completed []string) error
}

// PipelineRunner runs attempts as real assembly pipelines on fresh
// simulated teams.
type PipelineRunner struct {
	// Seed offsets every job's team seed (0 = use spec seeds as-is).
	Seed int64
}

// Run builds the job's team (geometry and injections from the attempt)
// and executes the pipeline with checkpointing on. The attempt is billed
// by the deterministic accounting model: executed stages at full cost,
// billed-done stages at the flat rehydration cost, and an armed attempt
// as failing exactly once at a model-chosen stage (its prefix plus half
// the failed stage) regardless of where — or whether — the injection
// physically trips. The service timeline therefore depends only on the
// submitted jobs, never on how the physical goroutines interleaved.
func (r *PipelineRunner) Run(spec JobSpec, att Attempt) RunOutcome {
	team := xrt.NewTeam(xrt.Config{
		Ranks:        att.Ranks,
		RanksPerNode: att.RanksPerNode,
		Seed:         spec.Seed + r.Seed,
		Inject:       att.Inject,
	})

	pcfg := spec.Pipeline
	pcfg.CkptDir = att.CkptDir
	pcfg.Resume = att.Resume

	// The billed timeline comes from the accounting model, anchored on
	// the billed completed-stage prefix the scheduler tracked for this
	// attempt (never on the physical checkpoint contents).
	var completed map[string]bool
	if att.Resume && len(att.BilledDone) > 0 {
		completed = make(map[string]bool, len(att.BilledDone))
		for _, st := range att.BilledDone {
			completed[st] = true
		}
	}
	marks := modelMarks(spec, att.Ranks, completed)
	failStage, armed := modelFailStage(att.Inject, pipeline.StageNames(spec.Pipeline))

	res, err := pipeline.Run(team, spec.Libs, pcfg)
	out := RunOutcome{Measured: team.VirtualNow()}
	if tv := team.TripVirtual(); tv > 0 {
		// The attempt died to an injected crash or retry exhaustion: the
		// initiator's clock at the trip is the honest measured duration;
		// VirtualNow also counts how far survivors raced before
		// unwinding, which varies with physical scheduling.
		out.Measured = tv
	}
	fail := func(stage string, errText string) RunOutcome {
		out.Failed = true
		out.FailedStage = stage
		out.Virtual = modelFailureVirtual(marks, stage)
		out.BilledDone = billedPrefix(marks, stage)
		if disk := att.Inject.Disk(); disk.Enabled() {
			// The attempt also damaged the disk stage's checkpoint: the
			// requeued resume will scrub and recompute from there, so the
			// billed rehydration prefix stops strictly before it.
			out.BilledDone = trimBilledAt(out.BilledDone, disk.Stage)
		}
		out.Err = errText
		return out
	}
	if err != nil {
		var sf *pipeline.StageFailedError
		switch {
		case errors.As(err, &sf) && armed:
			// The injection physically tripped. The checkpoint holds
			// whatever stages the real run finished first; billing uses
			// the model's stage regardless (where the trip lands is
			// schedule-dependent in the speculative phases).
			return fail(failStage, err.Error())
		case errors.As(err, &sf):
			// An unarmed attempt died to an injection-style failure —
			// retries run disarmed, so this should be unreachable; keep
			// the job recoverable by billing at the physical stage.
			return fail(sf.Stage, err.Error())
		default:
			out.Fatal = true
			out.Virtual = modelFailureVirtual(marks, "")
			out.Err = err.Error()
			return out
		}
	}
	if armed {
		// The injection never physically fired (a fault countdown can
		// outlive a small stage; a seeded drop pattern can spare every
		// message). The model still bills the armed failure so the
		// timeline cannot depend on the physical outcome; the checkpoint
		// on disk is simply further ahead than the billing assumes, and
		// the requeued attempt rehydrates it.
		return fail(failStage, fmt.Sprintf("sched: armed failure billed in stage %s (injection did not trip)", failStage))
	}
	if n := len(marks); n > 0 {
		out.Virtual = marks[n-1].End
	}
	out.Seqs = res.FinalSeqs
	out.Metrics = res.Metrics
	out.Stages = marks
	return out
}

// Preempt truncates the job's checkpoint manifest to the completed-
// stage prefix.
func (r *PipelineRunner) Preempt(jobID int, ckptDir string, completed []string) error {
	keep := make(map[string]bool, len(completed))
	for _, s := range completed {
		keep[s] = true
	}
	_, err := ckpt.Truncate(ckptDir, func(stage string) bool { return keep[stage] })
	return err
}

package sched

import (
	"errors"
	"slices"
	"strings"
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
	// Inject is what this attempt runs under: the spec's value, or its
	// Disarmed form once the job has been requeued after a failure. An
	// armed disk fault still lets the attempt complete bit-identically;
	// the damage surfaces only if a failure sends the job back to its
	// checkpoint, where the resume scrubs and recomputes from the damaged
	// stage on.
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
	// Virtual is how long the attempt held its ranks (present for
	// failures too: the cluster was occupied until the crash unwound).
	// The real runner reports the team's clock: its synchronized virtual
	// time on success, the trip clock of the crash or retry exhaustion on
	// failure — a function of the job and the allocation, like every
	// other virtual time in the tree.
	Virtual time.Duration
	// Measured always equals Virtual; benchmark/serve.go reads both, so
	// it stays until the harness can change (ROADMAP item 6).
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
	// virtual end offsets (success only; used for preemption). A stage's
	// mark falls after its checkpoint segment was written (or loaded), so
	// the stages marked by a preemption boundary are the ones whose
	// segment exists.
	Stages []StageMark
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

// Run builds the job's team (geometry and injections from the attempt),
// executes the pipeline with checkpointing on, and reports what the team's
// clock says: an attempt that completes held its ranks for the team's
// virtual time, one that died to its crash or to retry exhaustion until the
// trip, in the stage the pipeline names. An armed injection that does not
// trip — a countdown that outlives its stage, a drop pattern that spares
// every message — is simply a job that completes. The requeued attempt
// resumes from whatever the checkpoint manifest records.
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

	res, err := pipeline.Run(team, spec.Libs, pcfg)
	out := RunOutcome{Virtual: team.VirtualNow()}
	var sf *pipeline.StageFailedError
	switch {
	case errors.As(err, &sf):
		// VirtualNow also counts how far the survivors ran before they
		// unwound, which follows the Go scheduler; the trip clock does not.
		out.Virtual = team.TripVirtual()
		out.Failed, out.FailedStage, out.Err = true, sf.Stage, err.Error()
	case err != nil:
		out.Fatal, out.Err = true, err.Error()
	default:
		out.Seqs, out.Metrics, out.Stages = res.FinalSeqs, res.Metrics, stageMarks(res.Metrics)
	}
	out.Measured = out.Virtual
	return out
}

// stageMarks reads an attempt's stage marks off its report: the depth-0
// spans tile the run, so each one's end is the report's total less the
// spans after it. A stage's mark is the end of its last span — its
// checkpoint-save: (or, resumed, checkpoint-load:) span when it has one —
// and checkpoint-scrub, the one span that belongs to no stage, accrues to
// the stage that follows it.
func stageMarks(rep *metrics.Report) []StageMark {
	var marks []StageMark
	end := rep.VirtualNs
	for i := len(rep.Stages) - 1; i >= 0; i-- {
		st := &rep.Stages[i]
		if st.Depth != 0 {
			continue
		}
		stage := st.Name
		if _, of, ok := strings.Cut(st.Name, ":"); ok {
			stage = of
		}
		if stage != "checkpoint-scrub" && (len(marks) == 0 || marks[len(marks)-1].Stage != stage) {
			marks = append(marks, StageMark{Stage: stage, End: time.Duration(end)})
		}
		end -= st.VirtualNs
	}
	slices.Reverse(marks)
	return marks
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

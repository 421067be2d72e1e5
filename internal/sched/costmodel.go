package sched

import (
	"math"
	"os"
	"strings"
	"time"

	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// The service accounting model.
//
// Billing by model is a choice, no longer a necessity: a run's measured
// virtual time is a function of its input (DESIGN.md §9 — the traversal's
// claims resolve in virtual-time order), so a timeline built from
// measured stage times would be as reproducible as this one. Billing
// measured stage time is the follow-up (ROADMAP item 2).
//
// Until then every attempt is charged by a deterministic billing model: a
// per-stage linear cost in the job's input scale, divided by the
// allocation, plus a fixed per-stage overhead that grows with the
// collective tree depth. The constants below are calibrated against the
// measured virtual profiles of the reference templates (all four land
// within ~10% of the measured totals), so queue waits, utilization, and
// fairness in the service report track the simulated machine while
// remaining exactly reproducible. Measured virtual time still flows
// into each job's hipmer-metrics/v1 report — the model steers only the
// service timeline.

// stageNsPerBase maps a stage's base name (suffixes like "-k31" or
// "-round2" stripped) to its billed cost in nanoseconds per input base
// per rank. Calibrated against the reference templates at 4–8 ranks.
var stageNsPerBase = map[string]float64{
	"io":                80,
	"kmer-analysis":     240,
	"contig-generation": 95,
	"scaffolding":       120,
	"gap-closing":       5,
	"tip-clip":          15,
	"bubble-pop":        15,
	"pseudo-merge":      25,
}

// defaultStageNsPerBase bills stages the table does not know.
const defaultStageNsPerBase = 40

// stageFloorNs is the fixed per-stage overhead: startup plus one
// collective tree sweep per log2(ranks) doubling.
const (
	stageFloorNs    = 30_000.0
	stageTreeStepNs = 8_000.0
)

// rehydrateNs is the billed cost of skipping a checkpointed stage on
// resume (manifest lookup + payload rehydration).
const rehydrateNs = 20_000.0

// stageBaseName strips the iterative-k / multi-round suffix ("-k31",
// "-round2") from a stage name so cost lookup works for every round.
func stageBaseName(name string) string {
	for _, sep := range []string{"-k", "-round"} {
		if i := strings.LastIndex(name, sep); i > 0 {
			digits := name[i+len(sep):]
			if digits != "" && strings.Trim(digits, "0123456789") == "" {
				return name[:i]
			}
		}
	}
	return name
}

// specBases estimates the job's input scale in sequence bases. In-memory
// libraries count their record bases exactly; file-backed FASTQ is
// estimated from the file size (headers, separators, and quality lines
// roughly match the sequence bases 4:3 in the fixtures the service
// generates). The estimate is deterministic — it depends only on the
// submitted payload, never on how a run was scheduled.
func specBases(libs []pipeline.Library) int64 {
	var n int64
	for _, l := range libs {
		if l.Path != "" {
			if fi, err := os.Stat(l.Path); err == nil {
				n += fi.Size() * 3 / 7
			}
			continue
		}
		for _, rec := range l.Records {
			n += int64(len(rec.Seq))
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// stageCostNs bills one executed stage.
func stageCostNs(stage string, bases int64, ranks int) float64 {
	w, ok := stageNsPerBase[stageBaseName(stage)]
	if !ok {
		w = defaultStageNsPerBase
	}
	tree := math.Ceil(math.Log2(float64(ranks)))
	if tree < 0 {
		tree = 0
	}
	return w*float64(bases)/float64(ranks) + stageFloorNs + stageTreeStepNs*tree
}

// modelMarks bills a full attempt: cumulative per-stage end offsets over
// the pipeline's stage list, with stages in completed (already
// checkpointed, rehydrated on resume) billed at the flat rehydration
// cost. The last mark's End is the attempt's total billed duration.
func modelMarks(spec JobSpec, ranks int, completed map[string]bool) []StageMark {
	bases := specBases(spec.Libs)
	names := pipeline.StageNames(spec.Pipeline)
	marks := make([]StageMark, 0, len(names))
	var cum float64
	for _, n := range names {
		if completed[n] {
			cum += rehydrateNs
		} else {
			cum += stageCostNs(n, bases, ranks)
		}
		marks = append(marks, StageMark{Stage: n, End: time.Duration(cum)})
	}
	return marks
}

// modelFailureVirtual bills a failed attempt: every stage before the
// failed one at its full (or rehydrated) cost, plus half the failed
// stage — the deterministic stand-in for "the crash landed mid-stage".
// A failed stage the model does not find bills the whole attempt.
func modelFailureVirtual(marks []StageMark, failedStage string) time.Duration {
	var prev time.Duration
	for _, m := range marks {
		if m.Stage == failedStage {
			return prev + (m.End-prev)/2
		}
		prev = m.End
	}
	if len(marks) == 0 {
		return 0
	}
	return marks[len(marks)-1].End
}

// modelFailStage decides, from the attempt's arming alone, whether an
// armed attempt is billed as failing and in which stage. The physical
// injections cannot drive the schedule: a FaultPlan countdown fires
// after a seeded number of charges in the target stage and a chaos plan
// exhausts wherever a message sees RetryBudget+1 consecutive drops —
// both functions of per-rank charge counts, which the speculative
// phases make schedule-dependent. So the model declares every armed
// attempt to fail exactly once, at a stage picked deterministically:
// the fault's target stage, or for chaos a seeded draw over the stages
// past input. A chaos plan whose per-message exhaustion probability is
// negligible (soft plans meant to survive on retries) is billed as
// succeeding.
func modelFailStage(inj xrt.Inject, stages []string) (string, bool) {
	if len(stages) == 0 {
		return "", false
	}
	if crash := inj.Crash(); crash.Enabled() {
		// Admission checked the stage is one of this pipeline's.
		return crash.Stage, true
	}
	if inj.ChaosSeed != 0 && chaosModelExhausts(inj.DropRate, inj.RetryBudget) {
		// Never the input stage: exhaustion needs remote traffic.
		i := 1 + int(uint64(inj.ChaosSeed)%uint64(max(len(stages)-1, 1)))
		if i >= len(stages) {
			i = len(stages) - 1
		}
		return stages[i], true
	}
	return "", false
}

// chaosModelExhausts reports whether a chaos plan is billed as
// exhausting its retry budget. A message dies after RetryBudget+1
// consecutive seeded drops, so the per-message probability is
// DropRate^(RetryBudget+1); plans below one-in-a-million per message
// (the soft plans the load generator arms to survive on retries) are
// billed as completing.
func chaosModelExhausts(drop float64, budget int) bool {
	if drop <= 0 {
		return false
	}
	if budget <= 0 {
		budget = 16 // MessageFaultPlan's default budget
	}
	return math.Pow(drop, float64(budget+1)) >= 1e-6
}

// billedPrefix lists the stages strictly before the billed failure —
// the completed set the requeued attempt's billing rehydrates.
func billedPrefix(marks []StageMark, failedStage string) []string {
	var prefix []string
	for _, m := range marks {
		if m.Stage == failedStage {
			return prefix
		}
		prefix = append(prefix, m.Stage)
	}
	return prefix
}

// trimBilledAt cuts a billed rehydration prefix at the stage whose
// checkpoint an armed disk fault damaged: the stages strictly before it
// stay rehydratable, the damaged stage and everything after are billed
// as recomputed — the billing mirror of the physical scrub-and-heal the
// resume performs. A disk stage absent from the prefix (the attempt
// failed before reaching it) leaves the prefix unchanged.
func trimBilledAt(prefix []string, diskStage string) []string {
	for i, s := range prefix {
		if s == diskStage {
			return prefix[:i:i]
		}
	}
	return prefix
}

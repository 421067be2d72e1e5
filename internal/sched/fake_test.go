package sched

import (
	"fmt"
	"hash/fnv"
	"time"
)

// fakeRunner models attempts without running real pipelines, so the
// scheduler's property tests can push thousands of synthetic jobs
// through every code path (dispatch, requeue, preempt, rescale) in
// milliseconds. An attempt's duration is a pure function of the spec
// and allocation; jobs run five equal virtual stages, an armed fault or
// a hard chaos plan kills the attempt at 60% (after stage 3), and
// resume skips the stages recorded complete (by a crash or by Preempt).
type fakeRunner struct {
	completed map[int]int // jobID -> completed stage count
	runs      int
	preempts  int
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{completed: make(map[int]int)}
}

const fakeStages = 5

func fakeStageName(i int) string { return fmt.Sprintf("s%d", i) }

// fakeWork is the job's total virtual work at 1 rank: 40–200ms,
// deterministic in (name, seed).
func fakeWork(spec JobSpec) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", spec.Name, spec.Seed)
	return time.Duration(40+h.Sum64()%160) * time.Millisecond
}

func (f *fakeRunner) Run(spec JobSpec, att Attempt) RunOutcome {
	f.runs++
	total := fakeWork(spec) / time.Duration(att.Ranks)
	d := total / fakeStages
	skip := 0
	if att.Resume {
		skip = f.completed[att.JobID]
	}
	inj := att.Inject
	fail := inj.FaultSeed != 0 && inj.FailStage != "" || (inj.ChaosSeed != 0 && inj.DropRate > 0.4 && inj.RetryBudget <= 1)
	if fail && skip < 4 {
		// Crash mid-stage-4: stages 1..3 are checkpointed.
		f.completed[att.JobID] = 3
		return RunOutcome{
			Virtual:     time.Duration(3-skip)*d + d/2,
			Failed:      true,
			Err:         "injected fake failure",
			FailedStage: fakeStageName(4),
		}
	}
	out := RunOutcome{Virtual: time.Duration(fakeStages-skip) * d}
	for i := skip + 1; i <= fakeStages; i++ {
		out.Stages = append(out.Stages, StageMark{
			Stage: fakeStageName(i),
			End:   time.Duration(i-skip) * d,
		})
	}
	out.Seqs = [][]byte{[]byte(fmt.Sprintf("asm/%s/%d", spec.Name, spec.Seed))}
	f.completed[att.JobID] = fakeStages
	return out
}

func (f *fakeRunner) Preempt(jobID int, ckptDir string, completed []string) error {
	f.preempts++
	n := 0
	if len(completed) > 0 {
		// Stage names are s1..s5; the attempt may itself have been a
		// resume, so the prefix length alone undercounts.
		last := completed[len(completed)-1]
		n = int(last[1] - '0')
	}
	f.completed[jobID] = n
	return nil
}

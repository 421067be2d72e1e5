package expt

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"hipmer/internal/pipeline"
	"hipmer/internal/sched"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// ServeResult is the service exhibit's outcome: the hipmer-sched/v1
// report plus the correctness facts its gate asserts.
type ServeResult struct {
	// Load is the traffic the exhibit was asked to serve; Gate derives
	// from it which scheduler mechanisms must have been exercised.
	Load   sched.LoadConfig
	Report *sched.Report
	// BitIdentical: every completed job's assembly matched a solo run of
	// the same spec at its final rank count (memoized per template ×
	// rank count — thousands of jobs share a handful of templates).
	BitIdentical bool
	// ReportIdentical: a second full pass of the identical schedule
	// produced bit-identical report bytes.
	ReportIdentical bool
	// SoloRuns is how many distinct (template, ranks) baselines the
	// bit-identity check actually ran.
	SoloRuns int
	// FaultedCompleted counts crash-, chaos- or disk-armed jobs that
	// completed — after requeue + resume, where the injection tripped.
	FaultedCompleted int
}

// Gate is the exhibit's pass condition.
func (r *ServeResult) Gate() error {
	rep, lc := r.Report, r.Load
	if rep.Completed+rep.Failed+rep.Rejected != rep.Jobs {
		return fmt.Errorf("serve gate: %d jobs not terminal", rep.Jobs-rep.Completed-rep.Failed-rep.Rejected)
	}
	if rep.Failed != 0 {
		return fmt.Errorf("serve gate: %d terminal failures (faults must recover via requeue+resume)", rep.Failed)
	}
	if lc.Oversize > 0 && rep.Rejected == 0 {
		return fmt.Errorf("serve gate: no admission rejections exercised")
	}
	if lc.FaultFrac+lc.ChaosFrac+lc.DiskFrac > 0 && (rep.Requeues == 0 || r.FaultedCompleted == 0) {
		return fmt.Errorf("serve gate: no fault recovery exercised (requeues %d, faulted completed %d)",
			rep.Requeues, r.FaultedCompleted)
	}
	if lc.MaxPriority > 0 && rep.Preemptions == 0 {
		return fmt.Errorf("serve gate: no preemptions exercised")
	}
	if lc.MaxPriority > 0 && rep.Rescales == 0 {
		return fmt.Errorf("serve gate: no elastic rescales exercised")
	}
	if !r.BitIdentical {
		return fmt.Errorf("serve gate: a job's assembly differed from its solo run")
	}
	if !r.ReportIdentical {
		return fmt.Errorf("serve gate: report not bit-identical across two runs")
	}
	if rep.Utilization <= 0.3 {
		return fmt.Errorf("serve gate: utilization %.2f implausibly low", rep.Utilization)
	}
	return nil
}

// DiskServeLoad is the storage-fault leg: a small workload in which the
// generator arms 40% of the jobs with checkpoint damage, each paired
// with a later crash: a job whose crash trips must requeue and heal in
// service. Its jobs arrive 2.5 ms apart on average, so that it keeps the
// cluster about a third busy, above the gate's utilisation floor.
func DiskServeLoad() sched.LoadConfig {
	return sched.LoadConfig{
		Tenants:   4,
		Jobs:      24,
		MeanGapNs: int64(2500 * time.Microsecond),
		Burst:     4,
		DiskFrac:  0.4,
	}
}

// ServeSweep runs an assembly-as-a-service exhibit: lc.Jobs real
// assembly jobs from lc.Tenants tenants multiplexed onto one shared
// 32-rank simulated cluster under the injections lc arms. Every
// completed job's assembly is checked bit-identical to a solo run of the
// same spec, and the whole schedule is run twice to check report
// determinism. seed overrides lc.Seed and also draws the job templates
// and the scheduler's tie-breaks.
func ServeSweep(seed int64, lc sched.LoadConfig) (*ServeResult, string, error) {
	const ranks, ranksPerNode = 32, 8
	tmp, err := os.MkdirTemp("", "hipmer-serve-*")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)
	tpls, err := sched.DefaultTemplates(seed, tmp)
	if err != nil {
		return nil, "", err
	}
	lc.Seed = seed
	specs, err := sched.GenJobs(lc, tpls)
	if err != nil {
		return nil, "", err
	}
	cfg := sched.Config{
		Ranks:        ranks,
		RanksPerNode: ranksPerNode,
		Seed:         seed,
		QueueCap:     lc.Jobs + 1,
		Tenants:      sched.DefaultTenantConfigs(lc.Tenants, ranks, 8),
	}

	run := func() (*sched.Outcome, error) {
		s, err := sched.New(cfg, &sched.PipelineRunner{})
		if err != nil {
			return nil, err
		}
		return s.Run(specs)
	}
	out, err := run()
	if err != nil {
		return nil, "", err
	}

	res := &ServeResult{Load: lc, Report: out.Report, BitIdentical: true}

	// Bit-identity versus solo runs, memoized per (template, ranks).
	byName := make(map[string]sched.Template, len(tpls))
	for _, tpl := range tpls {
		byName[tpl.Name] = tpl
	}
	solo := make(map[string]map[string]int)
	for i, jr := range out.Jobs {
		if jr.State != sched.StateCompleted {
			continue
		}
		if specs[i].FaultSeed != 0 || specs[i].ChaosSeed != 0 || specs[i].DiskFaultSeed != 0 {
			res.FaultedCompleted++
		}
		final := jr.RanksUsed[len(jr.RanksUsed)-1]
		key := fmt.Sprintf("%s@%d", jr.Name, final)
		want, ok := solo[key]
		if !ok {
			tpl := byName[jr.Name]
			team := xrt.NewTeam(xrt.Config{Ranks: final, RanksPerNode: ranksPerNode, Seed: tpl.Seed})
			sres, err := pipeline.Run(team, tpl.Libs, tpl.Pipeline)
			if err != nil {
				return nil, "", fmt.Errorf("solo baseline %s: %w", key, err)
			}
			want = verify.CanonicalSet(sres.FinalSeqs)
			solo[key] = want
			res.SoloRuns++
		}
		if !verify.EqualSets(verify.CanonicalSet(jr.Seqs), want) {
			res.BitIdentical = false
		}
	}

	// Determinism: the identical schedule, scheduled again.
	out2, err := run()
	if err != nil {
		return nil, "", err
	}
	b1, err := out.Report.Marshal()
	if err != nil {
		return nil, "", err
	}
	b2, err := out2.Report.Marshal()
	if err != nil {
		return nil, "", err
	}
	res.ReportIdentical = bytes.Equal(b1, b2)

	text := fmt.Sprintf("Assembly-as-a-service load exhibit — %d jobs, %d tenants, %d ranks, seed %d\n\n%s\n  solo baselines: %d, faulted jobs completed: %d, bit-identical: %v, report deterministic: %v\n",
		lc.Jobs, lc.Tenants, ranks, seed, out.Report.FormatTable(),
		res.SoloRuns, res.FaultedCompleted, res.BitIdentical, res.ReportIdentical)
	return res, text, nil
}

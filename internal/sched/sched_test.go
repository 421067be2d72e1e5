package sched

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// crashInScaffolding arms a rank crash for fake-runner jobs. The fake
// fails any crash-armed attempt whatever the stage, but admission checks
// the name against the job's real stage list.
var crashInScaffolding = xrt.Inject{FaultSeed: 9, FailStage: "scaffolding"}

// fakeTemplates is a synthetic job pool for fake-runner tests (no real
// datasets: the fake derives work from name+seed only).
func fakeTemplates() []Template {
	return []Template{
		{Name: "small", Pipeline: pipeline.Config{K: 21}, Ranks: 4, Seed: 11, Weight: 5},
		{Name: "medium", Pipeline: pipeline.Config{K: 21}, Ranks: 8, Seed: 12, Weight: 3},
		{Name: "large", Pipeline: pipeline.Config{K: 21}, Ranks: 16, Seed: 13, Weight: 1},
	}
}

func fakeLoad(t *testing.T, lc LoadConfig) []JobSpec {
	t.Helper()
	specs, err := GenJobs(lc, fakeTemplates())
	if err != nil {
		t.Fatalf("GenJobs: %v", err)
	}
	return specs
}

// runFake schedules specs on the fake runner and replays the decision log
// against the scheduler's rules (CheckTrace): capacity, dispatch and
// preemption at every event.
func runFake(t *testing.T, cfg Config, specs []JobSpec) *Outcome {
	t.Helper()
	cfg.CkptRoot = t.TempDir()
	s, err := New(cfg, newFakeRunner())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out, err := s.Run(specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := CheckTrace(out, specs); err != nil {
		t.Fatal(err)
	}
	return out
}

func serviceConfig() Config {
	return Config{
		Ranks:        32,
		RanksPerNode: 8,
		Seed:         7,
		QueueCap:     256,
		DefaultQuota: 16,
	}
}

// TestReportDeterminism is the two-run golden of the determinism
// satellite: the same seeded workload scheduled twice marshals to
// bit-identical hipmer-sched/v1 bytes, and those bytes match the
// committed golden (so wall-clock or map-order leaks fail loudly).
func TestReportDeterminism(t *testing.T) {
	lc := LoadConfig{
		Seed: 42, Tenants: 8, Jobs: 400, MeanGapNs: int64(3 * time.Millisecond),
		Burst: 6, FaultFrac: 0.08, ChaosFrac: 0.15, MaxPriority: 2, Oversize: 4,
	}
	var runs [][]byte
	for i := 0; i < 2; i++ {
		out := runFake(t, serviceConfig(), fakeLoad(t, lc))
		b, err := out.Report.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		runs = append(runs, b)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("two runs of the same seeded workload produced different reports:\n--- run 1\n%s\n--- run 2\n%s", runs[0], runs[1])
	}

	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, runs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("report differs from golden %s (regenerate with -update if the change is intentional)\ngot:\n%s", golden, runs[0])
	}
}

// TestServiceOutcomes checks the seeded workload actually exercises the
// service machinery: rejections, requeues, preemptions, rescales all
// fire, every admitted job reaches a terminal state, and fault-injected
// jobs complete after requeue + resume.
func TestServiceOutcomes(t *testing.T) {
	lc := LoadConfig{
		Seed: 42, Tenants: 8, Jobs: 400, MeanGapNs: int64(3 * time.Millisecond),
		Burst: 6, FaultFrac: 0.08, ChaosFrac: 0.15, MaxPriority: 2, Oversize: 4,
	}
	specs := fakeLoad(t, lc)
	out := runFake(t, serviceConfig(), specs)
	r := out.Report

	if r.Jobs != 400 {
		t.Fatalf("report jobs = %d, want 400", r.Jobs)
	}
	if r.Completed+r.Failed+r.Rejected != r.Jobs {
		t.Fatalf("jobs don't all reach a terminal state: %d + %d + %d != %d",
			r.Completed, r.Failed, r.Rejected, r.Jobs)
	}
	if r.Rejected < lc.Oversize {
		t.Fatalf("rejected %d < %d oversize jobs", r.Rejected, lc.Oversize)
	}
	if r.Requeues == 0 {
		t.Fatal("no requeues despite injected faults")
	}
	if r.Preemptions == 0 {
		t.Fatal("no preemptions despite mixed priorities on a saturated cluster")
	}
	if r.Rescales == 0 {
		t.Fatal("no elastic rescales despite requeued resumable jobs")
	}
	if r.Failed != 0 {
		t.Fatalf("%d terminal failures; faults are disarmed on requeue so all jobs should complete", r.Failed)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v out of (0, 1]", r.Utilization)
	}

	faulted := 0
	for i, jr := range out.Jobs {
		if jr.State == StateRejected {
			if specs[i].Ranks <= 32 {
				t.Fatalf("job %d rejected but its request was satisfiable: %s", i, jr.Reason)
			}
			continue
		}
		if jr.State != StateCompleted {
			t.Fatalf("job %d state %q: %s", i, jr.State, jr.Reason)
		}
		if specs[i].FaultSeed != 0 || (specs[i].ChaosSeed != 0 && specs[i].RetryBudget == 1) {
			if jr.Requeues == 0 && jr.Preemptions == 0 && specs[i].FaultSeed != 0 {
				t.Fatalf("fault-armed job %d completed without a requeue", i)
			}
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("workload contained no fault-armed jobs")
	}
}

// TestAdmissionControl covers the structural rejection reasons and the
// bounded queue.
func TestAdmissionControl(t *testing.T) {
	cfg := Config{
		Ranks: 16, Seed: 1, QueueCap: 2,
		Tenants: []TenantConfig{{Name: "a", Quota: 16}, {Name: "b", Quota: 4}},
	}
	mk := func(tenant string, ranks int, arrival time.Duration) JobSpec {
		return JobSpec{Tenant: tenant, Name: "small", Ranks: ranks, Seed: 11, Arrival: arrival}
	}
	specs := []JobSpec{
		mk("a", 16, 0),                   // occupies the whole cluster
		mk("ghost", 4, time.Microsecond), // unknown tenant
		mk("b", 8, time.Microsecond),     // over tenant quota
		mk("b", 0, time.Microsecond),     // nonsense rank request
		// Queue cap 2: the first two queue, the third is bounced.
		mk("a", 4, 2*time.Microsecond),
		mk("a", 4, 3*time.Microsecond),
		mk("a", 4, 4*time.Microsecond),
	}
	out := runFake(t, cfg, specs)

	wantStates := []string{
		StateCompleted, StateRejected, StateRejected, StateRejected,
		StateCompleted, StateCompleted, StateRejected,
	}
	for i, want := range wantStates {
		if out.Jobs[i].State != want {
			t.Errorf("job %d state %q (reason %q), want %q", i, out.Jobs[i].State, out.Jobs[i].Reason, want)
		}
	}
	if out.Report.Rejected != 4 {
		t.Fatalf("report rejected = %d, want 4", out.Report.Rejected)
	}
	if !strings.Contains(out.Jobs[6].Reason, "queue full") {
		t.Fatalf("job 6 reason %q, want queue-full", out.Jobs[6].Reason)
	}
}

// TestElasticRescale: a requeued resumable job finds its requested rank
// count occupied but idle capacity free, and resumes downscaled.
func TestElasticRescale(t *testing.T) {
	cfg := Config{Ranks: 16, Seed: 1, DefaultQuota: 16}
	specs := []JobSpec{
		// Faulted 16-rank job: fails, requeues as resumable. An attempt
		// already failing is no preemption victim, so it runs to its crash.
		{Tenant: "a", Name: "big", Ranks: 16, Seed: 5, Inject: crashInScaffolding},
		// A higher-priority 12-rank job queued behind the crash wins the
		// post-crash dispatch, so the resumed job can only fit on 4.
		{Tenant: "b", Name: "long", Ranks: 12, Seed: 6, Priority: 1, Arrival: time.Millisecond},
	}
	out := runFake(t, cfg, specs)
	j := out.Jobs[0]
	if j.State != StateCompleted {
		t.Fatalf("faulted job state %q: %s", j.State, j.Reason)
	}
	if j.Requeues != 1 {
		t.Fatalf("faulted job requeues = %d, want 1", j.Requeues)
	}
	if !j.Rescaled {
		t.Fatalf("resumed job was not rescaled; ranks used %v", j.RanksUsed)
	}
	last := j.RanksUsed[len(j.RanksUsed)-1]
	if last >= 16 || last < 1 {
		t.Fatalf("resumed allocation %d, want a downscale in [1, 16)", last)
	}
	if out.Report.Rescales == 0 {
		t.Fatal("report records no rescales")
	}
}

// TestRetryBudgetTerminalFailure: a job that keeps failing is
// terminally failed after maxRetries requeues and does not poison the
// rest of the schedule.
func TestRetryBudgetTerminalFailure(t *testing.T) {
	cfg := Config{Ranks: 16, Seed: 1, DefaultQuota: 8}
	specs := []JobSpec{
		{Tenant: "a", Name: "doomed", Ranks: 4, Seed: 5, Inject: crashInScaffolding},
		{Tenant: "b", Name: "fine", Ranks: 4, Seed: 6},
	}
	// The fake disarms nothing on its own, but the scheduler disarms the
	// fault on requeue, so "doomed" would normally succeed on attempt 2.
	// Force repeated failure with a runner that always fails the job.
	s, err := New(cfg, alwaysFail{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs[0].State != StateFailed {
		t.Fatalf("doomed job state %q, want failed", out.Jobs[0].State)
	}
	if out.Jobs[0].Attempts != 1+maxRetries {
		t.Fatalf("doomed job attempts = %d, want %d (1 + maxRetries)", out.Jobs[0].Attempts, 1+maxRetries)
	}
	if out.Jobs[1].State != StateFailed {
		// alwaysFail fails everything; job 1 fails too. The point is the
		// schedule terminates and both reach terminal states.
		t.Fatalf("job 1 state %q", out.Jobs[1].State)
	}
	if out.Report.Failed != 2 {
		t.Fatalf("report failed = %d, want 2", out.Report.Failed)
	}
}

type alwaysFail struct{}

func (alwaysFail) Run(spec JobSpec, att Attempt) RunOutcome {
	return RunOutcome{Virtual: 10 * time.Millisecond, Failed: true, Err: "synthetic", FailedStage: "s1"}
}
func (alwaysFail) Preempt(int, string, []string) error { return nil }

func TestConfigValidate(t *testing.T) {
	base := Config{Ranks: 32, Tenants: []TenantConfig{{Name: "a", Quota: 32}}}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no ranks", func(c *Config) { c.Ranks = 0 }, "ranks"},
		// 0 is each knob's "use the default", so the bound named is 0.
		{"negative queue", func(c *Config) { c.QueueCap = -1 }, "queue-cap must be >= 0, got -1"},
		{"negative ranks per node", func(c *Config) { c.RanksPerNode = -1 }, "ranks-per-node must be >= 0, got -1"},
		{"zero quota", func(c *Config) { c.Tenants = []TenantConfig{{Name: "a", Quota: 0}} }, "quota"},
		{"quota over cluster", func(c *Config) { c.Tenants = []TenantConfig{{Name: "a", Quota: 64}} }, "exceeds"},
		{"duplicate tenant", func(c *Config) {
			c.Tenants = []TenantConfig{{Name: "a", Quota: 16}, {Name: "a", Quota: 32}}
		}, "duplicate"},
		{"unnamed tenant", func(c *Config) { c.Tenants = []TenantConfig{{Quota: 4}} }, "empty name"},
		{"stranded capacity", func(c *Config) { c.Tenants = []TenantConfig{{Name: "a", Quota: 4}} }, "unusable"},
		{"bad default quota", func(c *Config) { c.DefaultQuota = 64 }, "default-quota"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestGenJobsArmsNoPerturbation: the generator makes load and arms no
// test device. Schedule perturbation sleeps at every phase start, barrier
// and flush; a served job runs without it unless its job file asks.
func TestGenJobsArmsNoPerturbation(t *testing.T) {
	lc := LoadConfig{
		Seed: 9, Tenants: 4, Jobs: 200, Burst: 6,
		FaultFrac: 0.2, ChaosFrac: 0.2, DiskFrac: 0.2, MaxPriority: 2,
	}
	specs, err := GenJobs(lc, fakeTemplates())
	if err != nil {
		t.Fatal(err)
	}
	var faulted, chaotic, disked, prioritized int
	for i, spec := range specs {
		if spec.PerturbSeed != 0 {
			t.Fatalf("job %d (%s) armed with perturb seed %d", i, spec.Name, spec.PerturbSeed)
		}
		if spec.FaultSeed != 0 {
			faulted++
		}
		if spec.ChaosSeed != 0 {
			chaotic++
		}
		if spec.DiskFaultSeed != 0 {
			disked++
		}
		if spec.Priority > 0 {
			prioritized++
		}
	}
	if faulted == 0 || chaotic == 0 || disked == 0 || prioritized == 0 {
		t.Fatalf("load arms too little to show anything: %d crashes, %d chaos, %d disk faults, %d prioritized",
			faulted, chaotic, disked, prioritized)
	}
}

// TestLoadConfigValidate holds the load generator's rules. The base load
// leaves the gap and the burst zero, which select the generator's
// defaults, so only a negative one is refused.
func TestLoadConfigValidate(t *testing.T) {
	base := LoadConfig{Tenants: 8, Jobs: 100}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid load config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LoadConfig)
		want string
	}{
		{"no-tenants", func(c *LoadConfig) { c.Tenants = 0 }, "Tenants must be >= 1, got 0"},
		{"no-jobs", func(c *LoadConfig) { c.Jobs = 0 }, "Jobs must be >= 1, got 0"},
		{"negative-gap", func(c *LoadConfig) { c.MeanGapNs = -5e6 }, "MeanGapNs must be >= 0 (0 = default), got -5000000"},
		{"negative-burst", func(c *LoadConfig) { c.Burst = -1 }, "Burst must be >= 0 (0 = default), got -1"},
		{"fault-frac-over-1", func(c *LoadConfig) { c.FaultFrac = 1.5 }, "FaultFrac"},
		{"chaos-frac-negative", func(c *LoadConfig) { c.ChaosFrac = -0.1 }, "ChaosFrac"},
		{"disk-frac-over-1", func(c *LoadConfig) { c.DiskFrac = 1.5 }, "DiskFrac"},
		{"disk-frac-negative", func(c *LoadConfig) { c.DiskFrac = -0.2 }, "DiskFrac"},
		{"negative-priority", func(c *LoadConfig) { c.MaxPriority = -2 }, "MaxPriority"},
		{"oversize-over-jobs", func(c *LoadConfig) { c.Oversize = 101 }, "Oversize must be in 0..Jobs (100), got 101"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("invalid load config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

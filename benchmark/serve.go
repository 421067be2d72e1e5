package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hipmer"
	"hipmer/internal/fastq"
	"hipmer/internal/pipeline"
	"hipmer/internal/sched"
	"hipmer/internal/stats"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// The service workload: a seeded stream of tiny assembly jobs through the
// hipmerd scheduler. One operation is one Scheduler.Run of the stream.
const (
	serveRanks        = 32
	serveRanksPerNode = 8
	serveTenants      = 12
	serveOversize     = 2 // jobs that ask for more ranks than exist; admission must reject exactly these
)

// serveInput is one seeded instance of the service workload.
type serveInput struct {
	templates []*asmInput // job archetypes, in sched.DefaultTemplates order
	specs     []sched.JobSpec
	dir       string
	ops       int
}

// serveTemplates mirrors sched.DefaultTemplates — the same four tiny
// human / wheat / metagenome archetypes, ranks, k and draw weights, the
// first ingested from a FASTQ file — with the genomes fixed and only the
// reads drawn from readSeed, like the assembly workloads.
func serveTemplates(readSeed int64, dir string, j int) ([]*asmInput, []sched.Template, error) {
	humanRef, humanS := humanReads(readSeed, 2000, 12)
	humanMRef, humanM := humanReads(readSeed+1, 4000, 15)
	wheatRef, wNames, wInserts, wheatS := wheatReads(readSeed+2, 3000, 12)
	species, metaS := metaReads(readSeed+3, 12000, 6, 900)

	path := filepath.Join(dir, fmt.Sprintf("human-s-%d.fastq", j))
	if err := os.WriteFile(path, fastq.Format(humanS), 0o644); err != nil {
		return nil, nil, fmt.Errorf("materializing template fastq: %w", err)
	}
	opt := func(ranks int, seed int64, contigsOnly bool) hipmer.Options {
		return hipmer.Options{K: 21, Ranks: ranks, RanksPerNode: serveRanksPerNode, Seed: seed, ContigsOnly: contigsOnly}
	}
	inputs := []*asmInput{
		{name: "human-s", libs: []hipmer.Library{{Name: "human395", Path: path, InsertMean: 395}},
			reads: [][]fastq.Record{humanS}, opt: opt(4, genomeSeed+11, false), ref: humanRef},
		{name: "human-m", libs: []hipmer.Library{{Name: "human395", Reads: toReads(humanM), InsertMean: 395}},
			reads: [][]fastq.Record{humanM}, opt: opt(8, genomeSeed+12, false), ref: humanMRef},
		{name: "wheat-s", reads: wheatS, opt: opt(4, genomeSeed+13, false), ref: wheatRef},
		{name: "meta-s", libs: []hipmer.Library{{Name: "wetland", Reads: toReads(metaS), InsertMean: 300}},
			reads: [][]fastq.Record{metaS}, opt: opt(8, genomeSeed+14, true), species: species},
	}
	for i := range wheatS {
		inputs[2].libs = append(inputs[2].libs, hipmer.Library{Name: wNames[i], Reads: toReads(wheatS[i]), InsertMean: wInserts[i]})
	}
	weights := []int{5, 3, 3, 1}
	tpls := make([]sched.Template, len(inputs))
	for i, in := range inputs {
		in.dir = dir
		tpl := sched.Template{
			Name: in.name, Ranks: in.opt.Ranks, Seed: in.opt.Seed, Weight: weights[i],
			Pipeline: pipeline.Config{K: in.opt.K, ContigsOnly: in.opt.ContigsOnly},
		}
		for li, lib := range in.libs {
			pl := pipeline.Library{Name: lib.Name, Path: lib.Path, InsertHint: lib.InsertMean}
			if lib.Path == "" {
				pl.Records = in.reads[li]
			}
			tpl.Libs = append(tpl.Libs, pl)
		}
		tpls[i] = tpl
	}
	return inputs, tpls, nil
}

func serveInputFor(e *env, j int) (scenario, error) {
	inputs, tpls, err := serveTemplates(e.readSeed(j), e.dir, j)
	if err != nil {
		return nil, err
	}
	jobs := 60
	if e.quick {
		jobs = 10
	}
	// The stream's shape — arrivals, tenants, template draws, which jobs
	// are faulted — is fixed like the genomes: fifty-odd draws from a
	// four-way mix move wall time and makespan by ±10 % between seeds.
	specs, err := sched.GenJobs(sched.LoadConfig{
		Seed: genomeSeed, Tenants: serveTenants, Jobs: jobs,
		MeanGapNs: int64(3 * time.Millisecond), Burst: 8,
		FaultFrac: 0.04, ChaosFrac: 0.06, MaxPriority: 2, Oversize: serveOversize,
	}, tpls)
	if err != nil {
		return nil, err
	}
	// Only the gaps between arrivals are redrawn, ±10 % each, so that the
	// virtual timeline is a measurement and not a constant of the stream.
	rng := xrt.NewPrng(e.readSeed(j))
	var prev, at time.Duration
	for i := range specs {
		gap := specs[i].Arrival - prev
		prev = specs[i].Arrival
		at += time.Duration(float64(gap) * (0.9 + 0.2*rng.Float64()))
		specs[i].Arrival = at
		// GenJobs arms a wall-clock schedule perturbation on every job: a
		// test device that sleeps at synchronisation points. It nearly
		// doubles wall time and makes it bimodal (3.7 s or 6.0 s for the
		// same 50 jobs), so the benchmark serves the jobs without it.
		specs[i].PerturbSeed = 0
	}
	return &serveInput{templates: inputs, specs: specs, dir: e.dir}, nil
}

// serveRun is the detail one operation hands to validate.
type serveRun struct {
	jobs   []sched.JobResult
	report *sched.Report
}

// run is one Scheduler.Run of specs through runner.
func (s *serveInput) run(specs []sched.JobSpec, runner sched.Runner) (outcome, error) {
	s.ops++
	root := filepath.Join(s.dir, fmt.Sprintf("serve-ckpt-%d", s.ops))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(root)
	sc, err := sched.New(sched.Config{
		Ranks: serveRanks, RanksPerNode: serveRanksPerNode, Seed: genomeSeed,
		QueueCap: len(specs) + 1,
		Tenants:  sched.DefaultTenantConfigs(serveTenants, serveRanks, 8),
		CkptRoot: root,
	}, runner)
	if err != nil {
		return outcome{}, err
	}
	out, err := sc.Run(specs)
	if err != nil {
		return outcome{}, err
	}

	// A job fails if it ends failed, if admission rejects anything but a
	// deliberately oversize request, or if it is unaccounted for.
	o := outcome{
		virtualMs: out.Report.MakespanSeconds * 1e3,
		detail:    serveRun{out.Jobs, out.Report},
	}
	h := sha256.New()
	for i, jr := range out.Jobs {
		oversize := specs[i].Ranks > serveRanks
		if !oversize {
			o.attempted++
		}
		switch {
		case jr.State == sched.StateCompleted:
			fmt.Fprintf(h, "%d %s\n", jr.ID, digestCanonical(jr.Seqs))
		case jr.State == sched.StateRejected && oversize:
		default:
			o.failed++
		}
	}
	if out.Report.Completed+out.Report.Rejected != out.Report.Jobs {
		o.failed = o.attempted
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o, nil
}

func (s *serveInput) op() (outcome, error) {
	return s.run(s.specs, &sched.PipelineRunner{})
}

// warm serves the first fifth of the stream.
func (s *serveInput) warm() error {
	_, err := s.run(s.specs[:len(s.specs)/5], &sched.PipelineRunner{})
	return err
}

// digestCanonical hashes a job's sequences as an orientation- and
// order-free set, the identity the service promises across rank counts.
func digestCanonical(seqs [][]byte) string {
	canon := make([]string, len(seqs))
	for i, s := range seqs {
		canon[i] = verify.CanonicalSeq(s)
	}
	sort.Strings(canon)
	h := sha256.New()
	for _, c := range canon {
		fmt.Fprintf(h, "%d:%s", len(c), c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validate checks every completed job of the last operation against a
// solo hipmer.Assemble of its template at the job's final rank count
// (memoised), then validates the most common template against its
// reference like an assembly workload.
func (s *serveInput) validate(last outcome, res *results) error {
	byName := map[string]*asmInput{}
	for _, in := range s.templates {
		byName[in.name] = in
	}
	solo := map[string]string{}
	for _, jr := range last.detail.(serveRun).jobs {
		if jr.State != sched.StateCompleted {
			continue
		}
		in := byName[jr.Name]
		ranks := jr.RanksUsed[len(jr.RanksUsed)-1]
		key := fmt.Sprintf("%s@%d", jr.Name, ranks)
		want, ok := solo[key]
		if !ok {
			opt := in.opt
			opt.Ranks = ranks
			r, err := hipmer.Assemble(in.libs, opt)
			if err != nil {
				return fmt.Errorf("solo assembly %s: %w", key, err)
			}
			want = digestCanonical(r.Scaffolds)
			solo[key] = want
		}
		if got := digestCanonical(jr.Seqs); got != want {
			return fmt.Errorf("job %d (%s): served assembly differs from the solo assembly", jr.ID, key)
		}
	}
	rep := s.templates[0]
	o, err := rep.op()
	if err != nil {
		return err
	}
	return rep.validate(o, res)
}

// tracingRunner wraps the real runner with one span per call and keeps
// the few figures of each call the scheduler's metrics need.
type tracingRunner struct {
	inner sched.Runner
	tr    *tracer
	// per Run call
	wallMs  []float64
	billErr []float64 // |billed − measured| ÷ measured virtual time, successful attempts
	ok      int
	// summed over Preempt calls
	preemptMs float64
}

func (t *tracingRunner) Run(spec sched.JobSpec, att sched.Attempt) sched.RunOutcome {
	var out sched.RunOutcome
	s := t.tr.call("sched", "run:"+spec.Name, func() { out = t.inner.Run(spec, att) })
	s.args = map[string]any{
		"job": att.JobID, "template": spec.Name, "attempt": att.Attempt, "ranks": att.Ranks,
		"resume": att.Resume, "failed": out.Failed, "fatal": out.Fatal,
		"billed_virtual_ms": ms(out.Virtual), "measured_virtual_ms": ms(out.Measured),
	}
	t.wallMs = append(t.wallMs, ms(s.wall()))
	if !out.Failed && !out.Fatal {
		t.ok++
		if out.Measured > 0 {
			t.billErr = append(t.billErr, math.Abs(float64(out.Virtual-out.Measured))/float64(out.Measured))
		}
	}
	return out
}

func (t *tracingRunner) Preempt(jobID int, ckptDir string, completed []string) error {
	var err error
	s := t.tr.call("sched", "preempt", func() { err = t.inner.Preempt(jobID, ckptDir, completed) })
	s.args = map[string]any{"job": jobID, "kept_stages": len(completed)}
	t.preemptMs += ms(s.wall())
	return err
}

// trace serves the stream through a tracing runner until there are enough
// per-attempt samples for a 95th percentile, derives the scheduler's
// metrics, then traces one solo job of the most common template — with
// checkpoints, as the service runs it — for the layers beneath.
func (s *serveInput) trace(tr *tracer, e *env, untracedWallMs, untracedVirtualMs float64, res *results) error {
	runner := &tracingRunner{inner: &sched.PipelineRunner{}, tr: tr}
	var ops, tracedWall, selfMs, allocMB float64
	var last serveRun
	for len(runner.wallMs) < e.minRunSamples && ops < 8 || ops == 0 {
		tr.nextOp()
		root := tr.begin("sched", "Scheduler.Run")
		o, err := s.run(s.specs, runner)
		tr.finish(root)
		if err != nil {
			return err
		}
		if o.failed > 0 {
			return fmt.Errorf("traced service run: %d of %d jobs failed", o.failed, o.attempted)
		}
		last = o.detail.(serveRun)
		ops++
		tracedWall += ms(root.wall())
		selfMs += ms(tr.selfTime(root))
		allocMB += float64(root.allocBytes) / 1e6
	}

	jobs, attempts := float64(len(s.specs)), float64(len(runner.wallMs))
	res.set("sched.jobs_per_s", jobs*ops/(tracedWall/1e3))
	res.set("sched.self_ms", selfMs/ops)
	res.set("sched.attempts", attempts/ops)
	res.set("sched.attempt_success_frac", float64(runner.ok)/attempts)
	res.set("sched.run_wall_p50_ms", median(runner.wallMs))
	if len(runner.wallMs) >= e.minRunSamples {
		res.set("sched.run_wall_p95_ms", stats.Quantile(runner.wallMs, 0.95))
	}
	res.set("sched.preempt_wall_ms", runner.preemptMs/ops)
	res.set("sched.alloc_mb_per_job", allocMB/ops/jobs)
	res.set("sched.bill_error_p50", median(runner.billErr))
	rep := last.report
	res.set("sched.queue_wait_p95_ms", rep.QueueWait.P95*1e3)
	res.set("sched.turnaround_p50_ms", rep.Turnaround.P50*1e3)
	res.set("sched.turnaround_p95_ms", rep.Turnaround.P95*1e3)
	res.set("sched.utilization", rep.Utilization)
	res.set("sched.requeues", float64(rep.Requeues))
	res.set("sched.preemptions", float64(rep.Preemptions))
	res.set("sched.rescales", float64(rep.Rescales))
	res.set("sched.rejected", float64(rep.Rejected))

	// The layers beneath the scheduler, on one representative job.
	job := *s.templates[0]
	job.ckpt = true
	var soloWall, soloVirtual []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		o, err := job.op()
		if err != nil {
			return err
		}
		soloWall = append(soloWall, ms(time.Since(t0)))
		soloVirtual = append(soloVirtual, o.virtualMs)
	}
	if _, err := job.traceLayers(tr, e, median(soloWall), median(soloVirtual), res); err != nil {
		return err
	}
	res.set("pipeline.trace_overhead_frac", (tracedWall/ops-untracedWallMs)/untracedWallMs)
	return nil
}

package sched

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hipmer/internal/fastq"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// Template is one job archetype the load generator draws from: a
// dataset, a pipeline configuration, and a requested rank count. All
// jobs stamped from one template share the dataset and team seed, so a
// solo-run baseline can be memoized per (template, final rank count)
// when checking the service's bit-identity guarantee over thousands of
// jobs.
type Template struct {
	Name     string
	Libs     []pipeline.Library
	Pipeline pipeline.Config
	Ranks    int
	Seed     int64
	// Weight is the template's relative draw probability.
	Weight int
}

// DefaultTemplates builds the mixed human/wheat/metagenome job pool of
// the heavy-traffic exhibit: tiny genomes (the service multiplexes
// thousands of them), one of which is materialized as a FASTQ file under
// dir so the streamed block-reader ingestion path is part of the mix.
func DefaultTemplates(seed int64, dir string) ([]Template, error) {
	_, humanS := pipeline.SimulatedHuman(seed, 2000, 12)
	_, humanM := pipeline.SimulatedHuman(seed+1, 4000, 15)
	_, wheatS := pipeline.SimulatedWheat(seed+2, 3000, 12)
	metaS := pipeline.SimulatedMetagenome(seed+3, 12000, 6, 900)

	// human-s arrives as an on-disk FASTQ, ingested with the parallel
	// block reader like a real submission payload.
	path := filepath.Join(dir, "human-s.fastq")
	if err := os.WriteFile(path, fastq.Format(humanS[0].Records), 0o644); err != nil {
		return nil, fmt.Errorf("sched: materializing template fastq: %w", err)
	}
	humanFile := []pipeline.Library{{Name: humanS[0].Name, Path: path, InsertHint: humanS[0].InsertHint}}

	return []Template{
		{Name: "human-s", Libs: humanFile, Pipeline: pipeline.Config{K: 21}, Ranks: 4, Seed: seed + 11, Weight: 5},
		{Name: "human-m", Libs: humanM, Pipeline: pipeline.Config{K: 21}, Ranks: 8, Seed: seed + 12, Weight: 3},
		{Name: "wheat-s", Libs: wheatS, Pipeline: pipeline.Config{K: 21}, Ranks: 4, Seed: seed + 13, Weight: 3},
		{Name: "meta-s", Libs: metaS, Pipeline: pipeline.Config{K: 21, ContigsOnly: true}, Ranks: 8, Seed: seed + 14, Weight: 1},
	}, nil
}

// LoadConfig parameterizes the seeded open-loop load generator. The
// service's load is ServeLoad's; tests and the storage-fault exhibit leg
// set the fields they vary.
type LoadConfig struct {
	// Seed drives every draw (default 1).
	Seed int64
	// Tenants is the number of synthetic tenants (>= 1); tenant demand
	// is Zipf-skewed, like real multi-tenant traffic.
	Tenants int
	// Jobs is the total number of submissions (>= 1).
	Jobs int
	// MeanGapNs is the mean virtual interarrival gap (exponential;
	// 0 = default 10ms).
	MeanGapNs int64
	// Burst is the maximum burst size: some arrivals bring a burst of
	// 2..Burst near-simultaneous submissions (0 = default 1, which
	// disables bursts).
	Burst int
	// FaultFrac of jobs arrive with an armed mid-pipeline rank crash
	// (requeue + resume exercises, where the seed's countdown fits the
	// stage it is aimed at). In [0, 1].
	FaultFrac float64
	// ChaosFrac of jobs arrive with message chaos armed; a quarter of
	// them get a hard plan (50% drop, retry budget 1: every message dies
	// with p = 0.25) that exhausts and requeues. In [0, 1].
	ChaosFrac float64
	// DiskFrac of jobs arrive with an armed storage fault paired with a
	// rank crash strictly after it: attempt 1 damages one stage's
	// checkpoint on disk, then crashes later — if that crash trips, the
	// requeued resume must detect the damage, scrub, and recompute the
	// suffix. In [0, 1].
	// Zero leaves the PRNG draw stream untouched (existing workload
	// baselines stay valid).
	DiskFrac float64
	// MaxPriority draws per-job priorities uniformly from 0..MaxPriority
	// (0 = single priority class).
	MaxPriority int
	// Oversize is the number of jobs (spread through the stream) that
	// request an unsatisfiable rank count, exercising structural
	// admission rejection (default 0).
	Oversize int
}

// ServeLoad is the service's heavy-traffic load, the one that
// benchsuite -serve gates and hipmerd -loadgen serves: bursty arrivals
// 3 ms apart on average, injected rank crashes and chaos retry
// exhaustions, priority classes (so preemption and elastic rescale come
// into play) and one structurally unsatisfiable submission per 200 jobs.
func ServeLoad(jobs, tenants int) LoadConfig {
	return LoadConfig{
		Tenants:     tenants,
		Jobs:        jobs,
		MeanGapNs:   int64(3 * time.Millisecond),
		Burst:       8,
		FaultFrac:   0.04,
		ChaosFrac:   0.06,
		MaxPriority: 2,
		Oversize:    jobs/200 + 1,
	}
}

// Validate is the one statement of the load generator's rules; each
// message names the field it rejects. GenJobs calls it, and hipmerd exits 2
// on its error.
func (c LoadConfig) Validate() error {
	if c.Tenants < 1 {
		return fmt.Errorf("Tenants must be >= 1, got %d", c.Tenants)
	}
	if c.Jobs < 1 {
		return fmt.Errorf("Jobs must be >= 1, got %d", c.Jobs)
	}
	if c.MeanGapNs < 0 {
		return fmt.Errorf("MeanGapNs must be >= 0 (0 = default), got %d", c.MeanGapNs)
	}
	if c.Burst < 0 {
		return fmt.Errorf("Burst must be >= 0 (0 = default), got %d", c.Burst)
	}
	if c.FaultFrac < 0 || c.FaultFrac > 1 {
		return fmt.Errorf("FaultFrac must be in [0, 1], got %g", c.FaultFrac)
	}
	if c.ChaosFrac < 0 || c.ChaosFrac > 1 {
		return fmt.Errorf("ChaosFrac must be in [0, 1], got %g", c.ChaosFrac)
	}
	if c.DiskFrac < 0 || c.DiskFrac > 1 {
		return fmt.Errorf("DiskFrac must be in [0, 1], got %g", c.DiskFrac)
	}
	if c.MaxPriority < 0 {
		return fmt.Errorf("MaxPriority must be >= 0, got %d", c.MaxPriority)
	}
	if c.Oversize < 0 || c.Oversize > c.Jobs {
		return fmt.Errorf("Oversize must be in 0..Jobs (%d), got %d", c.Jobs, c.Oversize)
	}
	return nil
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanGapNs == 0 {
		c.MeanGapNs = int64(10 * time.Millisecond)
	}
	if c.Burst == 0 {
		c.Burst = 1
	}
	return c
}

// TenantNames returns the synthetic tenant names t00..tNN.
func TenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	return names
}

// DefaultTenantConfigs assigns quotas to n synthetic tenants over a
// ranks-sized cluster: quotas cycle through full / half / quarter of
// the cluster (floored at minQuota so every template fits).
func DefaultTenantConfigs(n, ranks, minQuota int) []TenantConfig {
	cycle := []int{ranks, ranks / 2, ranks / 4}
	out := make([]TenantConfig, n)
	for i, name := range TenantNames(n) {
		q := cycle[i%len(cycle)]
		if q < minQuota {
			q = minQuota
		}
		if q > ranks {
			q = ranks
		}
		out[i] = TenantConfig{Name: name, Quota: q}
	}
	return out
}

// GenJobs draws the workload: seeded open-loop arrivals with
// exponential gaps and occasional bursts, Zipf-skewed tenant demand,
// weighted template mix, and injected per-job faults. It arms no
// schedule perturbation: that is a test device, which a job file
// (perturb_seed) or a test sets itself. The same config and templates
// always produce the same specs.
func GenJobs(c LoadConfig, templates []Template) ([]JobSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("sched: loadgen needs at least one template")
	}
	c = c.withDefaults()
	prng := xrt.NewPrng(c.Seed)

	totW := 0
	for _, t := range templates {
		if t.Weight <= 0 {
			return nil, fmt.Errorf("sched: template %q has weight %d", t.Name, t.Weight)
		}
		totW += t.Weight
	}
	// Zipf-ish tenant weights: tenant i draws with weight 1/(i+1).
	tnames := TenantNames(c.Tenants)
	cum := make([]float64, c.Tenants)
	var zsum float64
	for i := range cum {
		zsum += 1 / float64(i+1)
		cum[i] = zsum
	}

	oversizeEvery := 0
	if c.Oversize > 0 {
		oversizeEvery = c.Jobs / c.Oversize
	}

	var specs []JobSpec
	now := time.Duration(0)
	for len(specs) < c.Jobs {
		// Exponential interarrival, occasionally a burst of
		// near-simultaneous submissions.
		gap := -math.Log(1-prng.Float64()) * float64(c.MeanGapNs)
		now += time.Duration(gap)
		burst := 1
		if c.Burst > 1 && prng.Float64() < 0.25 {
			burst = 2 + prng.Intn(c.Burst-1)
		}
		for b := 0; b < burst && len(specs) < c.Jobs; b++ {
			// Zipf tenant draw.
			u := prng.Float64() * zsum
			ti := 0
			for ti < len(cum)-1 && u > cum[ti] {
				ti++
			}
			// Weighted template draw.
			w := prng.Intn(totW)
			tpl := templates[0]
			for _, t := range templates {
				if w < t.Weight {
					tpl = t
					break
				}
				w -= t.Weight
			}
			i := len(specs)
			spec := JobSpec{
				Tenant:   tnames[ti],
				Name:     tpl.Name,
				Libs:     tpl.Libs,
				Pipeline: tpl.Pipeline,
				Ranks:    tpl.Ranks,
				Seed:     tpl.Seed,
				Arrival:  now + time.Duration(b)*time.Microsecond,
			}
			// A draw that once seeded a per-job schedule perturbation: kept
			// so every later draw, and every committed schedule, stays put.
			prng.Int63()
			if c.MaxPriority > 0 {
				spec.Priority = prng.Intn(c.MaxPriority + 1)
			}
			if oversizeEvery > 0 && i%oversizeEvery == oversizeEvery-1 {
				spec.Ranks = 1 << 20 // over any quota: structural rejection
			}
			if prng.Float64() < c.FaultFrac {
				// Crash in a random checkpointable stage past input.
				names := pipeline.StageNames(tpl.Pipeline)
				spec.FailStage = names[1+prng.Intn(len(names)-1)]
				spec.FaultSeed = prng.Int63() | 1
			}
			if prng.Float64() < c.ChaosFrac {
				spec.ChaosSeed = prng.Int63() | 1
				if prng.Float64() < 0.25 {
					// Hard plan: retry exhaustion → requeue.
					spec.DropRate = 0.5
					spec.RetryBudget = 1
				} else {
					spec.DropRate = 0.05 + 0.10*prng.Float64()
					spec.RetryBudget = 16
				}
			}
			// The DiskFrac > 0 guard keeps the draw stream identical to
			// older configs when disk faults are off.
			if names := pipeline.StageNames(tpl.Pipeline); c.DiskFrac > 0 &&
				len(names) >= 3 && prng.Float64() < c.DiskFrac {
				// A damaged checkpoint only matters if the job comes back
				// for it: pair the disk fault with a crash strictly after
				// it. Attempt 1 damages stage di's segment, crashes later;
				// the requeued resume detects the damage, scrubs, and
				// recomputes di..end.
				di := 1 + prng.Intn(len(names)-2)
				spec.DiskFailStage = names[di]
				spec.DiskFaultSeed = prng.Int63() | 1
				spec.FailStage = names[di+1+prng.Intn(len(names)-1-di)]
				spec.FaultSeed = prng.Int63() | 1
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

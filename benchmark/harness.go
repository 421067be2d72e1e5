package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hipmer/internal/xrt"
)

// defaultSeed is the seed the pinned output digests belong to.
const defaultSeed = 20151115

// setupRepeats is how often each dataset is built; setup_s is the median of
// all builds.
const setupRepeats = 3

// scenario is one seeded dataset of a workload and the operations on it.
type scenario interface {
	// warm runs the discarded warm-up operation.
	warm() error
	// op runs one untraced operation.
	op() (outcome, error)
	// validate is the untimed correctness pass over the last operation's
	// outcome; it records quality metrics when res is non-nil.
	validate(last outcome, res *results) error
	// trace runs the traced operation and the layer replays, recording
	// the per-layer metrics. The arguments are the medians of the
	// untraced operations on this dataset.
	trace(tr *tracer, e *env, untracedWallMs, untracedVirtualMs float64, res *results) error
}

// workload names one benchmark scenario family.
type workload struct {
	name string
	why  string
	// datasets is how many seeded datasets a run builds; operation i runs
	// on dataset i mod datasets, and the reported medians are taken over
	// all of them, which steadies metrics that depend on the read sample.
	datasets int
	// expect is the digest of the default seed's outputs, all datasets.
	expect string
	build  func(e *env, j int) (scenario, error)
}

var workloads = []workload{
	{
		name:     "human_e2e",
		why:      "Paper's headline dataset, single k, read from FASTQ: k-mer analysis dominates wall time (scan, super-k-mer codec, DHT blob writes, Bloom). kmer/dht-write changes show here; scaffolding ones must not.",
		datasets: 8,
		expect:   "f9751452afa57ea5fe47c76d42346528ad7aecc27e64f884f35c5610ef988005",
		build:    humanInput,
	},
	{
		name:     "wheat_scaffold",
		why:      "Repetitive genome, 3 libraries, 4 scaffolding rounds, checkpoints on, 96 ranks: gap closing and scaffolding dominate virtual time through imbalance; frozen DHT reads, heavy hitters, checkpoint writes.",
		datasets: 8,
		expect:   "3602152b6baf207ee1bfdd3852080c02e557082f288f1794710aa0278adefe1c",
		build:    wheatInput,
	},
	{
		name:     "meta_multik",
		why:      "Metagenome from .seqdb, k=21,33,55, contigs only: three analysis+contig rounds with graph cleaning and per-item pseudo-read puts, no scaffolding; the bypass workload for every scaffolding change.",
		datasets: 8,
		expect:   "d68a527ee1afc1f3a96027a31c39565d276d13790f7234d1366d422507add0e8",
		build:    metaInput,
	},
	{
		name:     "serve_mix",
		why:      "hipmerd serves 60 tiny jobs of 12 tenants with faults, chaos, preemption, rescale: per-job fixed costs (table, sketch, team set-up, checkpoint write+read) dominate, the opposite regime to human_e2e.",
		datasets: 3,
		expect:   "7f9b1115ce3ff9e2886319c3db81829fd9792ed9c394a75022e7013003c94ac7",
		build:    serveInputFor,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what a run hands to dataset builders and scenarios.
type env struct {
	seed    int64
	quick   bool
	seconds float64
	dir     string        // scratch directory, removed when the run ends
	replay  time.Duration // time budget of one layer replay
	// minRunSamples is how many per-attempt samples the traced service run
	// collects before it reports a 95th percentile: 200, so that ten lie
	// beyond it.
	minRunSamples int
}

// readSeed derives dataset j's read-sampling seed from the run seed.
func (e *env) readSeed(j int) int64 {
	return int64(xrt.Splitmix64(uint64(e.seed)+uint64(j)*0x9e3779b97f4a7c15) >> 1)
}

// size scales a genome length down to 20 kbp for -quick.
func (e *env) size(full int) int {
	if e.quick && full > 20_000 {
		return 20_000
	}
	return full
}

// report is the result of one run of one workload.
type report struct {
	Workload  string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Noisy     bool              `json:"noisy"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
}

// calibrate times a fixed single-threaded integer loop: the fastest of
// three runs of about 70 ms each on the 2-core host, which a passing
// disturbance cannot slow. Wall time divided by it is comparable across
// hosts; two calibrations that disagree mean the host itself changed speed.
func calibrate() float64 {
	best := math.Inf(1)
	for run := 0; run < 3; run++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 40_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		best = math.Min(best, ms(time.Since(t)))
	}
	return best
}

// usage is the process's CPU time (user + system) in seconds and its
// resident-set high-water mark in MB, from getrusage.
func usage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runWorkload runs one workload in this process. With traced false it
// measures the end-to-end metrics over e.seconds of untraced operations;
// with traced true it runs a few untraced operations on one dataset, then
// the traced operation and the layer replays, and reports the per-layer
// metrics. traceOut, when set, receives the spans.
func runWorkload(w *workload, e *env, traced bool, traceOut string) (*report, error) {
	rep := &report{Workload: w.name, Correct: true}
	fail := func(format string, args ...any) {
		rep.Correct = false
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	datasets, minOps := w.datasets, w.datasets
	budget := time.Duration(e.seconds * float64(time.Second))
	if traced {
		// A few untraced operations on the traced dataset, for the glue
		// and tracing-overhead figures; the run's time goes to the replays.
		datasets, minOps, budget = 1, 1, budget/4
	}
	if e.quick {
		datasets, minOps, budget = 1, 1, 0
	}
	scenarios := make([]scenario, datasets)
	var setups []float64
	for j := range scenarios {
		// Each dataset is built setupRepeats times and the last build kept:
		// a 10 ms set-up needs more than three samples for a steady median.
		for rep := 0; rep < setupRepeats; rep++ {
			runtime.GC() // every build starts from a collected heap, like every operation
			t := time.Now()
			sc, err := w.build(e, j)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			scenarios[j] = sc
		}
	}
	if !e.quick {
		if err := scenarios[0].warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// Closed loop, one client: operations back to back, bracketed by the
	// host calibration (taken here, not at process start: an idle host
	// clocks the first loop 15–20 % faster than one that has just worked).
	calibBefore := calibrate()
	var walls, cpus, virtuals, allocs []float64
	first := make([]string, datasets)
	var last outcome
	lastDataset := 0
	for i, start := 0, time.Now(); i < minOps || time.Since(start) < budget; i++ {
		sc := scenarios[i%datasets]
		// A collection between operations, outside the timed window: each
		// starts from the same heap, whatever the previous one left.
		runtime.GC()
		a0, t0 := totalAlloc(), time.Now()
		c0, _ := usage()
		o, err := sc.op()
		wall, alloc := time.Since(t0).Seconds(), totalAlloc()-a0
		c1, _ := usage()
		if err != nil {
			rep.Attempted++
			rep.Failed++
			fail("operation %d: %v", i, err)
			continue
		}
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		if o.failed > 0 {
			fail("operation %d: %d of %d failed", i, o.failed, o.attempted)
		}
		if first[i%datasets] == "" {
			first[i%datasets] = o.digest
		} else if o.digest != first[i%datasets] {
			rep.Failed += o.attempted
			fail("operation %d: output digest differs from the first operation on the same dataset", i)
		}
		last, lastDataset = o, i%datasets
		walls = append(walls, wall)
		cpus = append(cpus, c1-c0)
		virtuals = append(virtuals, o.virtualMs)
		allocs = append(allocs, float64(alloc)/1e6)
	}
	if len(walls) == 0 {
		return rep, nil
	}
	_, rss := usage()
	runtime.GC() // let the collector's workers finish before timing the host again
	calibAfter := calibrate()

	sum := sha256.Sum256([]byte(strings.Join(first, "\n")))
	switch got := hex.EncodeToString(sum[:]); {
	case traced || e.quick:
		// one dataset of possibly reduced size: nothing pinned to compare
	case e.seed != defaultSeed:
		fmt.Printf("%-15s seed %d is not the default %d: pinned-digest check skipped\n", w.name, e.seed, defaultSeed)
	case got != w.expect:
		rep.Failed = rep.Attempted
		fail("output digest %s differs from the pinned %s: the assembly changed", got, w.expect)
	}

	wallMs := median(walls) * 1e3
	var res *results
	if traced {
		res = newResults(perLayer)
		if err := scenarios[0].validate(last, res); err != nil {
			rep.Failed = rep.Attempted
			fail("validation: %v", err)
		}
		tr := newTracer()
		if err := scenarios[0].trace(tr, e, wallMs, median(virtuals), res); err != nil {
			rep.Failed = rep.Attempted
			fail("traced run: %v", err)
		}
		if err := checkSpans(tr); err != nil {
			fail("trace: %v", err)
		}
		if traceOut != "" {
			if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
				return nil, err
			}
			if err := tr.writeChrome(traceOut, w.name); err != nil {
				return nil, err
			}
			fmt.Printf("%-15s %d spans written to %s\n", w.name, len(tr.spans), traceOut)
		}
	} else {
		res = newResults(endToEnd)
		res.setDist("setup_s", setups)
		res.setDist("wall_s", walls)
		res.setDist("cpu_s", cpus)
		// Simulated time varies with the read sample (±18 % between
		// wheat datasets) and has no host-noise outliers.
		res.setMean("virtual_ms", virtuals)
		res.setDist("alloc_mb", allocs)
		res.set("peak_rss_mb", rss)
		if err := scenarios[lastDataset].validate(last, nil); err != nil {
			rep.Failed = rep.Attempted
			fail("validation: %v", err)
		}
	}

	calib := (calibBefore + calibAfter) / 2
	// Two calibrations more than 10 % apart: the host was busy meanwhile.
	rep.Noisy = math.Max(calibBefore, calibAfter) > 1.10*math.Min(calibBefore, calibAfter)
	if traced {
		res.set("host.calib_ms", calib)
		res.set("host.wall_per_calib", wallMs/calib)
		res.set("host.noisy", b2f(rep.Noisy))
		res.fillIdle()
		rep.PerLayer = res.m
	} else {
		rep.EndToEnd = res.m
	}
	fmt.Print(res.table(w.name))
	if !traced {
		fmt.Printf("%-15s %-32s %14.6g  %-9s before %.6g after %.6g\n", w.name, "host.calib_ms", calib, "ms", calibBefore, calibAfter)
		fmt.Printf("%-15s %-32s %14.6g  %-9s\n", w.name, "host.wall_per_calib", wallMs/calib, "ratio")
	}
	fmt.Printf("%-15s %-32s %14.6g  %-9s %d of %d\n", w.name, "failed_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Failed, rep.Attempted)
	if rep.Noisy {
		fmt.Printf("%-15s noisy: the host calibration moved by more than 10 %% during this workload (%.6g ms before, %.6g ms after)\n", w.name, calibBefore, calibAfter)
	}
	return rep, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkSpans verifies the trace is well formed: every parent exists and
// every child lies inside its parent.
func checkSpans(tr *tracer) error {
	for _, s := range tr.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) was never closed", s.id, s.name)
		}
		if s.parent < 0 {
			continue
		}
		if s.parent >= len(tr.spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.id, s.name, s.parent)
		}
		p := tr.spans[s.parent]
		if s.start < p.start || s.end > p.end || s.op != p.op {
			return fmt.Errorf("span %d (%s) does not nest inside its parent %d (%s)", s.id, s.name, p.id, p.name)
		}
	}
	return nil
}

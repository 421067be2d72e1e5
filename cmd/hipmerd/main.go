// Command hipmerd is the assembly-as-a-service front end: it accepts a
// batch of assembly jobs from many tenants, schedules them onto one
// shared simulated cluster with admission control, a bounded priority
// queue, and per-tenant rank quotas, and runs every job as a
// checkpointable pipeline — an injected crash or chaos retry exhaustion
// in one job requeues and resumes that job alone, and idle capacity
// elastically rescales queued resumable jobs. The policy has one setting,
// not flags: a job is requeued at most twice, preempted at most once, and
// gains one priority step per 50 ms of virtual queue wait. See DESIGN.md
// §15.
//
// Usage:
//
//	hipmerd -ranks 32 -tenant acme:16 -tenant umich:8 -default-quota 8 \
//	        -jobs jobs.json -report sched-report.json [-metrics-dir DIR]
//	hipmerd -ranks 32 -loadgen -lg-jobs 1000 -lg-tenants 12 -seed 7 \
//	        -report sched-report.json [-cpuprofile f] [-memprofile f]
//
// Jobs come from a JSON job file (-jobs; see internal/sched.ParseJobFile
// for the schema: per-job tenant, dataset or FASTQ paths, pipeline
// options, ranks, priority, arrival, optional fault/chaos arming) or
// from the seeded load generator (-loadgen), which stamps bursty
// open-loop arrivals from mixed human/wheat/metagenome templates. Its
// load is sched.ServeLoad, the one benchsuite -serve gates, without its
// oversize submissions and with a storage fault armed on 3 % of jobs;
// -lg-jobs and -lg-tenants size it, and -seed draws it.
//
// The service report (schema hipmer-sched/v1) is printed as a table and
// optionally written as JSON (-report). With -metrics-dir each tenant's
// completed jobs' hipmer-metrics/v1 reports are written to
// <dir>/<tenant>.metrics.json. The scheduler is deterministic: rerunning
// with the same flags produces a byte-identical report.
//
// Exit codes: 0 all jobs completed; 1 runtime error or any terminally
// failed job; 2 usage error; 7 any job rejected by admission control
// (shared with the cmd/hipmer taxonomy).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hipmer/internal/metrics"
	"hipmer/internal/prof"
	"hipmer/internal/sched"
)

const (
	exitRuntimeError      = 1
	exitUsageError        = 2
	exitAdmissionRejected = 7
)

// tenantFlags collects repeatable -tenant name:quota declarations.
type tenantFlags []sched.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*t)) }

func (t *tenantFlags) Set(v string) error {
	name, quotaStr, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("want name:quota, got %q", v)
	}
	quota, err := strconv.Atoi(quotaStr)
	if err != nil {
		return fmt.Errorf("bad quota in %q: %w", v, err)
	}
	*t = append(*t, sched.TenantConfig{Name: name, Quota: quota})
	return nil
}

func main() {
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "tenant declaration name:quota (repeatable)")
	ranks := flag.Int("ranks", 32, "shared simulated cluster size")
	ranksPerNode := flag.Int("ranks-per-node", 8, "simulated cores per node")
	seed := flag.Int64("seed", 1, "scheduler PRNG seed (tie-breaks); with -loadgen also the load's draws and templates")
	queueCap := flag.Int("queue-cap", 64, "admission queue bound; arrivals beyond it are rejected")
	defaultQuota := flag.Int("default-quota", 0, "rank quota for tenants not declared via -tenant (0 = reject unknown tenants)")
	ckptRoot := flag.String("ckpt-root", "", "directory hosting per-job checkpoint dirs (default: fresh temp dir)")
	keepCkpts := flag.Bool("keep-ckpts", false, "keep per-job checkpoint dirs after the run")
	jobsPath := flag.String("jobs", "", "JSON job file (see internal/sched.ParseJobFile)")
	loadgen := flag.Bool("loadgen", false, "generate jobs with the seeded load generator instead of -jobs")
	lgJobs := flag.Int("lg-jobs", 100, "loadgen: number of jobs")
	lgTenants := flag.Int("lg-tenants", 8, "loadgen: number of synthetic tenants (overrides -tenant)")
	reportPath := flag.String("report", "", "write the hipmer-sched/v1 service report (JSON) to this path")
	metricsDir := flag.String("metrics-dir", "", "write per-tenant hipmer-metrics/v1 report arrays under this directory")
	quiet := flag.Bool("quiet", false, "suppress the report table on stdout")
	profiles := prof.Flags()
	flag.Parse()

	cfg := sched.Config{
		Ranks:        *ranks,
		RanksPerNode: *ranksPerNode,
		Seed:         *seed,
		QueueCap:     *queueCap,
		Tenants:      tenants,
		DefaultQuota: *defaultQuota,
		CkptRoot:     *ckptRoot,
		KeepCkpts:    *keepCkpts,
	}
	var lc *sched.LoadConfig
	if *loadgen {
		lc = loadgenLoad(*lgJobs, *lgTenants, *seed)
	}
	if err := validateOptions(cfg, *jobsPath, lc); err != nil {
		fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
		flag.Usage()
		os.Exit(exitUsageError)
	}

	// Every exit below goes through profiles.Exit: os.Exit skips deferred
	// calls, and a profile that is not stopped is not written.
	exit := profiles.Exit
	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
		os.Exit(exitUsageError)
	}

	specs, cfg, cleanup, err := buildJobs(cfg, *jobsPath, lc)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
		exit(exitRuntimeError)
	}

	s, err := sched.New(cfg, &sched.PipelineRunner{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
		exit(exitUsageError)
	}
	out, err := s.Run(specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
		exit(exitRuntimeError)
	}

	if !*quiet {
		fmt.Print(out.Report.FormatTable())
	}
	if *reportPath != "" {
		if err := out.Report.WriteFile(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
			exit(exitRuntimeError)
		}
	}
	if *metricsDir != "" {
		if err := writeTenantMetrics(*metricsDir, out); err != nil {
			fmt.Fprintf(os.Stderr, "hipmerd: %v\n", err)
			exit(exitRuntimeError)
		}
	}

	exit(exitCodeFor(out))
}

// loadgenLoad is the -loadgen load: sched.ServeLoad less its oversize
// submissions (each would make the run exit 7), with a storage fault
// armed on 3 % of jobs, drawn from seed.
func loadgenLoad(jobs, tenants int, seed int64) *sched.LoadConfig {
	lc := sched.ServeLoad(jobs, tenants)
	lc.Seed = seed
	lc.Oversize = 0
	lc.DiskFrac = 0.03
	return &lc
}

// buildJobs resolves the job source: a parsed job file, or load generated
// by lc (nil without -loadgen) from the default template pool
// (materialized under a temp dir the returned cleanup removes). With
// -loadgen the tenant set is synthetic (tiered quotas over -lg-tenants
// names) unless -tenant declared one.
func buildJobs(cfg sched.Config, jobsPath string, lc *sched.LoadConfig) ([]sched.JobSpec, sched.Config, func(), error) {
	if lc == nil {
		specs, err := sched.ParseJobFile(jobsPath)
		return specs, cfg, nil, err
	}
	dir, err := os.MkdirTemp("", "hipmerd-loadgen")
	if err != nil {
		return nil, cfg, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	templates, err := sched.DefaultTemplates(lc.Seed, dir)
	if err != nil {
		return nil, cfg, cleanup, err
	}
	specs, err := sched.GenJobs(*lc, templates)
	if err != nil {
		return nil, cfg, cleanup, err
	}
	if len(cfg.Tenants) == 0 {
		// Floor quotas at 8: the largest default template requests 8
		// ranks, so every synthetic tenant can run the whole mix.
		cfg.Tenants = sched.DefaultTenantConfigs(lc.Tenants, cfg.Ranks, 8)
	}
	return specs, cfg, cleanup, nil
}

// writeTenantMetrics groups completed jobs' hipmer-metrics/v1 reports by
// tenant and writes one JSON array per tenant.
func writeTenantMetrics(dir string, out *sched.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byTenant := make(map[string][]*metrics.Report)
	for _, j := range out.Jobs {
		if j.Metrics != nil {
			byTenant[j.Tenant] = append(byTenant[j.Tenant], j.Metrics)
		}
	}
	names := make([]string, 0, len(byTenant))
	for n := range byTenant {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := metrics.WriteFileAll(filepath.Join(dir, n+".metrics.json"), byTenant[n]); err != nil {
			return err
		}
	}
	return nil
}

// exitCodeFor maps the service outcome onto the exit-code contract:
// admission rejections dominate (the caller's submission was refused —
// cmd/hipmer's exit 7), then terminal failures, then success.
func exitCodeFor(out *sched.Outcome) int {
	rejected, failed := 0, 0
	for _, j := range out.Jobs {
		switch j.State {
		case sched.StateRejected:
			rejected++
		case sched.StateFailed:
			failed++
		}
	}
	if rejected > 0 {
		fmt.Fprintf(os.Stderr, "hipmerd: %d of %d jobs: %v\n", rejected, len(out.Jobs), sched.ErrAdmissionRejected)
		return exitAdmissionRejected
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hipmerd: %d of %d jobs failed terminally\n", failed, len(out.Jobs))
		return exitRuntimeError
	}
	return 0
}

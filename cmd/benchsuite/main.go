// Command benchsuite regenerates the paper's tables and figures on
// scaled-down synthetic datasets and prints them in the paper's layout,
// and runs the scenario matrix that proves the assembly survives every
// injected failure unchanged.
//
// Usage:
//
//	benchsuite -all             # every exhibit of expt.Exhibits (a few minutes)
//	benchsuite -fig6 -table1    # selected exhibits
//	benchsuite -all -cores 48,96,192,384,768
//	benchsuite -matrix all -matrix-out matrix.json   # every scenario group (heavy)
//	benchsuite -matrix chaos,crash                   # selected groups
//	benchsuite -meta            # iterative-k vs single-k recovery on the metagenome
//	benchsuite -serve -serve-jobs 1000 -serve-tenants 12 -serve-report sched-report.json
//
// Wall time, memory and per-layer costs are measured by benchmark/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hipmer/internal/expt"
	"hipmer/internal/metrics"
	"hipmer/internal/prof"
	"hipmer/internal/sched"
)

func main() {
	all := flag.Bool("all", false, "run every exhibit")
	selected := map[string]*bool{}
	for _, e := range expt.Exhibits {
		selected[e.Name] = flag.Bool(e.Name, false, e.Help)
	}
	matrix := flag.String("matrix", "", "scenario matrix: comma-separated groups ("+strings.Join(expt.Groups(), ",")+") or all — baseline vs injected run vs resume, assembly identical and every injection fired")
	matrixOut := flag.String("matrix-out", "", "-matrix: write the rows and every cell's metrics report (JSON) to this path")
	metricsOut := flag.String("metrics-out", "", "write per-stage metrics reports (human+wheat, JSON array) to this path")
	serve := flag.Bool("serve", false, "assembly-as-a-service load exhibit: bursty multi-tenant traffic with injected faults on the shared cluster, every job bit-identical to its solo run, then the storage-fault leg (heavy; not part of -all)")
	serveJobs := flag.Int("serve-jobs", 1000, "-serve: number of jobs")
	serveTenants := flag.Int("serve-tenants", 12, "-serve: number of tenants")
	serveReport := flag.String("serve-report", "", "-serve: write the hipmer-sched/v1 service report (JSON) to this path")
	coresFlag := flag.String("cores", "", "comma-separated simulated-core sweep override")
	humanLen := flag.Int("human-len", 0, "human-like genome length override")
	wheatLen := flag.Int("wheat-len", 0, "wheat-like genome length override")
	metaLen := flag.Int("meta-len", 0, "metagenome total length override")
	metaSpecies := flag.Int("meta-species", 0, "metagenome species-count override")
	metaPairs := flag.Int("meta-pairs", 0, "metagenome read-pair-count override")
	seed := flag.Int64("seed", 0, "seed override")
	profiles := prof.Flags()
	flag.Parse()

	// Every exit below goes through profiles.Exit: os.Exit skips deferred
	// calls, and a profile that is not stopped is not written.
	exit := profiles.Exit
	// fatal reports err and exits 1 when err is non-nil.
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			exit(1)
		}
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(2)
	}

	sc := expt.SmallScale()
	if *coresFlag != "" {
		var cores []int
		for _, s := range strings.Split(*coresFlag, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsuite: bad core count %q\n", s)
				exit(2)
			}
			cores = append(cores, c)
		}
		sc.Cores = cores
	}
	if *humanLen > 0 {
		sc.HumanLen = *humanLen
	}
	if *wheatLen > 0 {
		sc.WheatLen = *wheatLen
	}
	if *metaLen > 0 {
		sc.MetaLen = *metaLen
	}
	if *metaSpecies > 0 {
		sc.MetaSpecies = *metaSpecies
	}
	if *metaPairs > 0 {
		sc.MetaPairs = *metaPairs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	var groups []string
	switch *matrix {
	case "":
	case "all":
		groups = expt.Groups()
	default:
		groups = strings.Split(*matrix, ",")
	}
	cells, err := expt.Cells(groups...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		exit(2)
	}
	var exhibits []expt.Exhibit
	for _, e := range expt.Exhibits {
		if *all || *selected[e.Name] {
			exhibits = append(exhibits, e)
		}
	}
	if len(exhibits) == 0 && len(cells) == 0 && *metricsOut == "" && !*serve {
		flag.Usage()
		exit(2)
	}

	fmt.Printf("HipMer-Go experiment suite — cores %v, seed %d\n", sc.Cores, sc.Seed)
	fmt.Printf("(virtual times on the simulated machine; shapes, not absolute values,\n")
	fmt.Printf(" reproduce the paper — see EXPERIMENTS.md)\n\n")

	// One runner: exhibits, matrix cells and -metrics-out share its
	// datasets and fault-free runs.
	runner := expt.NewRunner(sc)
	for _, e := range exhibits {
		text, err := e.Run(runner)
		if text != "" {
			fmt.Println(text)
		}
		if err != nil {
			fatal(fmt.Errorf("-%s: %w", e.Name, err))
		}
	}
	if len(cells) > 0 {
		rows, reports, text := runner.Matrix(cells)
		fmt.Println(text)
		if *matrixOut != "" {
			b, err := json.MarshalIndent(struct {
				Rows    []expt.Row        `json:"rows"`
				Reports []*metrics.Report `json:"reports"`
			}{rows, reports}, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*matrixOut, append(b, '\n'), 0o644))
			fmt.Printf("wrote %d matrix rows and %d metrics reports to %s\n", len(rows), len(reports), *matrixOut)
		}
		for _, r := range rows {
			if !r.OK() {
				fatal(fmt.Errorf("scenario matrix failed on %s/%s/%s", r.Group, r.Dataset, r.Mode))
			}
		}
	}
	if *metricsOut != "" {
		reports, err := runner.MetricsReports()
		fatal(err)
		fatal(metrics.WriteFileAll(*metricsOut, reports))
		fmt.Printf("wrote %d metrics reports to %s\n", len(reports), *metricsOut)
	}
	if *serve {
		if err := validateServeOptions(*serveJobs, *serveTenants); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			exit(2)
		}
		res, text, err := expt.ServeSweep(sc.Seed, sched.ServeLoad(*serveJobs, *serveTenants))
		fatal(err)
		fmt.Println(text)
		if *serveReport != "" {
			fatal(res.Report.WriteFile(*serveReport))
			fmt.Printf("wrote service report to %s\n", *serveReport)
		}
		fatal(res.Gate())
		disk, text, err := expt.ServeSweep(sc.Seed, expt.DiskServeLoad())
		fatal(err)
		fmt.Println(text)
		fatal(disk.Gate())
	}
	exit(0)
}

// validateServeOptions rejects unusable -serve parameters before the
// (multi-minute) exhibit starts; main exits 2 on error.
func validateServeOptions(jobs, tenants int) error {
	if jobs < 1 {
		return fmt.Errorf("-serve-jobs must be >= 1, got %d", jobs)
	}
	if tenants < 1 {
		return fmt.Errorf("-serve-tenants must be >= 1, got %d", tenants)
	}
	return nil
}

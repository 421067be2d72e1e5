// Command benchsuite regenerates the paper's tables and figures on
// scaled-down synthetic datasets and prints them in the paper's layout,
// and runs the scenario matrix that proves the assembly survives every
// injected failure unchanged.
//
// Usage:
//
//	benchsuite -all             # every experiment (a few minutes)
//	benchsuite -fig6 -table1    # selected experiments
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
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	fig6 := flag.Bool("fig6", false, "Figure 6: heavy-hitter k-mer analysis scaling (wheat)")
	table1 := flag.Bool("table1", false, "Tables 1+2: communication-avoiding traversal")
	fig7 := flag.Bool("fig7", false, "Figure 7: scaffolding strong scaling (human+wheat)")
	table3 := flag.Bool("table3", false, "Table 3: metagenome k-mer analysis + contigs")
	fig8 := flag.Bool("fig8", false, "Figure 8: end-to-end strong scaling (human+wheat)")
	compare := flag.Bool("compare", false, "§5.6: competing assemblers")
	ablations := flag.Bool("ablations", false, "design-choice ablations: Bloom memory, aggregating stores, super-k-mer transport, oracle sizing")
	matrix := flag.String("matrix", "", "scenario matrix: comma-separated groups ("+strings.Join(expt.Groups(), ",")+") or all — baseline vs injected run vs resume, assembly identical and every injection fired (-all runs verify,chaos,crash,meta)")
	matrixOut := flag.String("matrix-out", "", "-matrix: write the rows and every cell's metrics report (JSON) to this path")
	meta := flag.Bool("meta", false, "iterative-k metagenome exhibit: multi-k vs single-k recovery under the abundance-aware oracle")
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

	// -all runs the groups the old -all covered; the heavy rescale, disk
	// and cross groups wait for an explicit -matrix.
	var groups []string
	switch {
	case *matrix == "all":
		groups = expt.Groups()
	case *matrix != "":
		groups = strings.Split(*matrix, ",")
	case *all:
		groups = []string{"verify", "chaos", "crash", "meta"}
	}
	cells, err := expt.Cells(groups...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		exit(2)
	}
	if !(*all || *fig6 || *table1 || *fig7 || *table3 || *fig8 || *compare || *ablations ||
		len(cells) > 0 || *meta || *metricsOut != "" || *serve) {
		flag.Usage()
		exit(2)
	}

	fmt.Printf("HipMer-Go experiment suite — cores %v, seed %d\n", sc.Cores, sc.Seed)
	fmt.Printf("(virtual times on the simulated machine; shapes, not absolute values,\n")
	fmt.Printf(" reproduce the paper — see EXPERIMENTS.md)\n\n")

	if *all || *fig6 {
		_, text := expt.Fig6(sc)
		fmt.Println(text)
	}
	if *all || *table1 {
		_, t1, t2 := expt.Tables12(sc)
		fmt.Println(t1)
		fmt.Println(t2)
	}
	var humanRows, wheatRows []expt.SweepRow
	if *all || *fig7 || *fig8 {
		humanRows, err = expt.RunSweep(sc, "human")
		fatal(err)
		wheatRows, err = expt.RunSweep(sc, "wheat")
		fatal(err)
	}
	if *all || *fig7 {
		fmt.Println(expt.Fig7Format(humanRows))
		fmt.Println(expt.Fig7Format(wheatRows))
	}
	if *all || *table3 {
		_, text := expt.Table3(sc)
		fmt.Println(text)
	}
	if *all || *fig8 {
		fmt.Println(expt.Fig8Format(humanRows))
		fmt.Println(expt.Fig8Format(wheatRows))
	}
	if *all || *compare {
		_, text := expt.Compare(sc)
		fmt.Println(text)
	}
	if len(cells) > 0 {
		rows, reports, text := expt.Matrix(sc, cells)
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
	if *all || *meta {
		row, text, err := expt.MetaSweep(sc)
		fatal(err)
		fmt.Println(text)
		if !row.Gate() {
			fatal(fmt.Errorf("metagenome exhibit gate failed: multi-k must beat single-k on the rarest quartile with zero cross-joins"))
		}
	}
	if *metricsOut != "" {
		reports, err := expt.MetricsReports(sc)
		fatal(err)
		fatal(metrics.WriteFileAll(*metricsOut, reports))
		fmt.Printf("wrote %d metrics reports to %s\n", len(reports), *metricsOut)
	}
	if *all || *ablations {
		_, text := expt.AblationBloom(sc)
		fmt.Println(text)
		_, text = expt.AblationAggStores(sc)
		fmt.Println(text)
		_, text = expt.AblationSuperKmers(sc)
		fmt.Println(text)
		_, text = expt.AblationOracleMemory(sc)
		fmt.Println(text)
	}
	if *serve {
		if err := validateServeOptions(*serveJobs, *serveTenants); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			exit(2)
		}
		res, text, err := expt.ServeSweep(sc.Seed, expt.ServeLoad(*serveJobs, *serveTenants))
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

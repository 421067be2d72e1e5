package expt

import (
	"fmt"

	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// MetricsReports runs the end-to-end pipeline on the human and wheat
// datasets at the largest concurrency of the sweep and returns one
// per-stage metrics report per dataset — the artifact `benchsuite
// -metrics-out` writes for offline analysis (`asmstats -report`).
func MetricsReports(sc Scale) ([]*metrics.Report, error) {
	p := sc.Cores[len(sc.Cores)-1]
	var reports []*metrics.Report
	for _, dataset := range genomes {
		_, libs, _ := sc.dataset(dataset)
		team := xrt.NewTeam(sc.teamCfg(p))
		res, err := pipeline.Run(team, libs, pipeline.Config{K: sc.K, MinCount: 3})
		if err != nil {
			return nil, fmt.Errorf("expt: metrics run (%s): %w", dataset, err)
		}
		res.Metrics.Dataset = dataset
		reports = append(reports, res.Metrics)
	}
	return reports, nil
}

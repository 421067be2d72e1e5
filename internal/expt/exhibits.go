package expt

import (
	"fmt"
	"strings"
)

// Exhibit is one entry of the paper's evaluation as this repository
// regenerates it. Name is its benchsuite flag; Run renders its tables,
// each ending in a newline with a blank line between two. Text returned
// beside an error is what had been measured when the exhibit failed.
type Exhibit struct {
	Name, Help string
	Run        func(*Runner) (string, error)
}

// Exhibits is the evaluation in the order `benchsuite -all` prints it.
// Adding an exhibit is one entry here: benchsuite derives its flag from
// it, `make exhibits` commits its numbers, and EXPERIMENTS.md has to quote
// them (TestExperimentsDocMatchesGolden).
var Exhibits = []Exhibit{
	{"fig6", "Figure 6: heavy-hitter k-mer analysis scaling (wheat)",
		func(m *Runner) (string, error) {
			_, text := Fig6(m.sc)
			return text, nil
		}},
	{"table1", "Tables 1+2: communication-avoiding traversal",
		func(m *Runner) (string, error) {
			_, text := Tables12(m.sc)
			return text, nil
		}},
	{"fig7", "Figure 7: scaffolding strong scaling (human+wheat)",
		func(m *Runner) (string, error) { return m.sweepViews(Fig7Format) }},
	{"table3", "Table 3: metagenome k-mer analysis + contigs",
		func(m *Runner) (string, error) {
			_, text, err := m.Table3()
			return text, err
		}},
	{"fig8", "Figure 8: end-to-end strong scaling (human+wheat)",
		func(m *Runner) (string, error) { return m.sweepViews(Fig8Format) }},
	{"compare", "§5.6: competing assemblers",
		func(m *Runner) (string, error) {
			_, text, err := Compare(m.sc)
			return text, err
		}},
	{"ablations", "design-choice ablations: Bloom memory, aggregating stores, super-k-mer transport, oracle sizing",
		func(m *Runner) (string, error) {
			_, bloom := AblationBloom(m.sc)
			_, agg := AblationAggStores(m.sc)
			_, superk := AblationSuperKmers(m.sc)
			_, oracle := AblationOracleMemory(m.sc)
			return strings.Join([]string{bloom, agg, superk, oracle}, "\n"), nil
		}},
	{"meta", "iterative-k metagenome exhibit: multi-k vs single-k recovery under the abundance-aware oracle",
		func(m *Runner) (string, error) {
			row, text, err := m.MetaSweep()
			if err == nil && !row.Gate() {
				err = fmt.Errorf("gate failed: multi-k must beat single-k on the rarest quartile with zero cross-joins")
			}
			return text, err
		}},
}

// sweepViews renders one view of the human and the wheat sweep.
func (m *Runner) sweepViews(format func([]SweepRow) string) (string, error) {
	var views []string
	for _, dataset := range genomes {
		rows, err := m.RunSweep(dataset)
		if err != nil {
			return "", err
		}
		views = append(views, format(rows))
	}
	return strings.Join(views, "\n"), nil
}

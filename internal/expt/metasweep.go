package expt

import (
	"fmt"

	"hipmer/internal/verify"
)

// MetaRecovery is one assembly of the metagenome as the abundance-aware
// oracle judges it.
type MetaRecovery struct {
	Assembly string
	// Quartile is the mean genome fraction over the lowest-abundance
	// quartile of species — the recovery number iterative-k exists to
	// raise; Mean is the same over all species.
	Quartile, Mean float64
	// CrossJoins counts cross-species joins, Tolerated those the oracle
	// excuses.
	CrossJoins, Tolerated int
}

// MetaSweepRow is the iterative-k metagenome exhibit's verdict: one
// dataset, two assemblies — the metaMode ladder and the largest-k
// single-shot baseline, what a non-iterative assembler would pick for
// contiguity at the price of losing low-coverage species. The ladder's
// determinism battery is the "meta" group of the scenario matrix.
type MetaSweepRow struct {
	Multi, Single MetaRecovery
}

// Gate is the exhibit's acceptance bar: multi-k strictly beats single-k
// on the rare species and joins no two species.
func (r MetaSweepRow) Gate() bool {
	return r.Multi.Quartile > r.Single.Quartile && r.Multi.CrossJoins == 0
}

// MetaSweep runs the iterative-k metagenome exhibit and returns its row
// and the rendered table. The ladder's run is the meta group's baseline.
func (m *Runner) MetaSweep() (MetaSweepRow, string, error) {
	lens := metaMode.KmerLens
	singleK := lens[len(lens)-1]
	species := m.dataset("meta").species
	quart := verify.LowestQuartile(species)
	all := make([]int, len(species))
	for i := range all {
		all[i] = i
	}
	// Both are judged at the smallest k: the finest resolution either
	// assembly can claim credit at, and the same oracle for both.
	judge := func(name string, mode Mode) (MetaRecovery, error) {
		l, err := m.faultFree("meta", mode, metaRanks)
		if err != nil {
			return MetaRecovery{}, err
		}
		rep := verify.CheckMeta(l.seqs, species, verify.Options{K: lens[0]})
		return MetaRecovery{name, rep.MeanFraction(quart), rep.MeanFraction(all), rep.CrossJoins, rep.ToleratedJoins}, nil
	}
	var row MetaSweepRow
	var err error
	if row.Multi, err = judge(fmt.Sprintf("multi-k %v", lens), metaMode); err != nil {
		return row, "", err
	}
	single := Mode{K: singleK, MinCount: metaMode.MinCount, ContigsOnly: true}
	if row.Single, err = judge(fmt.Sprintf("single k=%d", singleK), single); err != nil {
		return row, "", err
	}

	var tab []string
	for _, r := range []MetaRecovery{row.Multi, row.Single} {
		tab = append(tab, fmt.Sprintf("%s\t%.4f\t%.4f\t%d\t%d", r.Assembly, r.Quartile, r.Mean, r.CrossJoins, r.Tolerated))
	}
	text := fmt.Sprintf("Iterative-k metagenome sweep (k=%v vs single-k baseline, abundance-aware oracle)\n", lens) +
		fmtTable("assembly\tquartile frac\tmean frac\tcross-joins\ttolerated", tab)
	return row, text, nil
}

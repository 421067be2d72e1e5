package expt

import (
	"fmt"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

// MetaSweepRow is the iterative-k metagenome exhibit's verdict: one
// dataset, two assemblies (the metaMode ladder and the largest-k
// single-shot baseline — what a non-iterative assembler would pick for
// contiguity, at the price of losing low-coverage species), judged by
// the abundance-aware oracle. The ladder's determinism battery is the
// "meta" group of the scenario matrix.
type MetaSweepRow struct {
	KmerLens []int
	SingleK  int

	// Lowest-abundance-quartile mean genome fraction — the recovery
	// number iterative-k exists to raise.
	QuartileMulti  float64
	QuartileSingle float64
	// All-species mean fractions, for the table.
	MeanMulti  float64
	MeanSingle float64
	// Cross-species joins by the abundance-aware oracle.
	CrossJoinsMulti  int
	CrossJoinsSingle int
}

// Gate is the exhibit's acceptance bar: multi-k strictly beats single-k
// on the rare species and joins no two species.
func (r MetaSweepRow) Gate() bool {
	return r.QuartileMulti > r.QuartileSingle && r.CrossJoinsMulti == 0
}

// MetaSweep runs the iterative-k metagenome exhibit and returns its row
// and the rendered table.
func MetaSweep(sc Scale) (MetaSweepRow, string, error) {
	species, libs := pipeline.SimulatedMetagenomeRefs(sc.Seed+4, sc.MetaLen, sc.MetaSpecies, sc.MetaPairs)
	lens := metaMode.KmerLens
	row := MetaSweepRow{KmerLens: lens, SingleK: lens[len(lens)-1]}

	multi, err := pipeline.Run(xrt.NewTeam(sc.teamCfg(metaRanks)), libs, metaMode.config(sc))
	if err != nil {
		return row, "", fmt.Errorf("expt: metagenome multi-k run: %w", err)
	}
	single, err := pipeline.Run(xrt.NewTeam(sc.teamCfg(metaRanks)), libs, pipeline.Config{
		K: row.SingleK, MinCount: metaMode.MinCount, ContigsOnly: true,
	})
	if err != nil {
		return row, "", fmt.Errorf("expt: metagenome single-k run: %w", err)
	}

	// Judge both at the smallest k: the finest resolution either assembly
	// can claim credit at, and the same oracle for both.
	mrep := verify.CheckMeta(multi.FinalSeqs, species, verify.Options{K: lens[0]})
	srep := verify.CheckMeta(single.FinalSeqs, species, verify.Options{K: lens[0]})
	quart := verify.LowestQuartile(species)
	all := make([]int, len(species))
	for i := range all {
		all[i] = i
	}
	row.QuartileMulti, row.QuartileSingle = mrep.MeanFraction(quart), srep.MeanFraction(quart)
	row.MeanMulti, row.MeanSingle = mrep.MeanFraction(all), srep.MeanFraction(all)
	row.CrossJoinsMulti, row.CrossJoinsSingle = mrep.CrossJoins, srep.CrossJoins

	text := "Iterative-k metagenome sweep (k=" + fmt.Sprint(lens) +
		" vs single-k baseline, abundance-aware oracle)\n" +
		fmtTable(
			[]string{"assembly", "quartile frac", "mean frac", "cross-joins", "tolerated"},
			[][]string{
				{fmt.Sprintf("multi-k %v", lens),
					fmt.Sprintf("%.4f", row.QuartileMulti),
					fmt.Sprintf("%.4f", row.MeanMulti),
					fmt.Sprintf("%d", row.CrossJoinsMulti),
					fmt.Sprintf("%d", mrep.ToleratedJoins)},
				{fmt.Sprintf("single k=%d", row.SingleK),
					fmt.Sprintf("%.4f", row.QuartileSingle),
					fmt.Sprintf("%.4f", row.MeanSingle),
					fmt.Sprintf("%d", row.CrossJoinsSingle),
					fmt.Sprintf("%d", srep.ToleratedJoins)},
			})
	return row, text, nil
}

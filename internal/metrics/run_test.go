package metrics_test

import (
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/metrics"
	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// toyRun executes the full pipeline on a small deterministic dataset: a
// 4-rank, 2-ranks-per-node team assembling an 8 kb random genome at 20x
// coverage. Every metrics test in this package derives from this one
// configuration so the golden file, the metamorphic sweep, and the
// conservation checks all pin the same run.
func toyRun(t *testing.T, perturbSeed int64) (*pipeline.Result, *xrt.Team) {
	t.Helper()
	rng := xrt.NewPrng(4)
	g := genome.Random(rng, 8000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 20,
		Lib:      genome.Library{Name: "toy", ReadLen: 100, InsertMean: 300, InsertSD: 20},
	})
	team := xrt.NewTeam(xrt.Config{
		Ranks: 4, RanksPerNode: 2, Seed: 7,
		Inject: xrt.Inject{PerturbSeed: perturbSeed},
	})
	res, err := pipeline.Run(team,
		[]pipeline.Library{{Name: "toy", Records: recs, InsertHint: 300}},
		pipeline.Config{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("pipeline returned no metrics report")
	}
	return res, team
}

// syntheticRun drives the metrics layer directly on a 4-rank team with a
// deterministic, race-free workload touching every charge class, nested
// spans, and counters. Unlike the full pipeline — whose speculative
// phases have schedule-dependent performance profiles by design — every
// charge here is in rank-local program order, so the entire report except
// the wall-clock fields must be bit-identical across any interleaving.
// This isolates the metrics layer's own determinism from the runtime's.
func syntheticRun(perturbSeed int64) *metrics.Report {
	team := xrt.NewTeam(xrt.Config{
		Ranks: 4, RanksPerNode: 2, Seed: 9,
		Inject: xrt.Inject{PerturbSeed: perturbSeed},
	})
	team.BeginSpan("ingest")
	team.Run(func(r *xrt.Rank) {
		r.ChargeIORead(int64(10_000 * (r.ID + 1))) // skewed on purpose
		r.ChargeItems(250 * (r.ID + 1))
	})
	team.AddCounter("records", 1000)
	team.EndSpan()

	team.BeginSpan("exchange")
	team.BeginSpan("scatter")
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < 50+10*r.ID; i++ {
			r.ChargeLookup((r.ID+1+i)%4, 64)
		}
		r.ChargeStoreBatch((r.ID+2)%4, 100, 6400) // charges its receiver too
		r.Charge(5_000)
		r.Barrier()
		r.ChargeCacheHit()
	})
	team.AddCounter("batches", 4)
	team.EndSpan()
	team.BeginSpan("reduce")
	team.Run(func(r *xrt.Rank) {
		r.Charge(float64(1_000 * (4 - r.ID)))
	})
	team.EndSpan()
	team.EndSpan()

	// An empty span: zero denominators must stay zero in the report.
	team.BeginSpan("idle")
	team.EndSpan()
	return metrics.FromTeam(team)
}

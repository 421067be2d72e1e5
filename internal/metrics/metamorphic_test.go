package metrics_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

var perturbSeeds = []int64{0, 1, 7, 42}

// TestMetamorphicLayer is the metrics layer's own metamorphic property:
// on a workload whose charges are all in rank-local program order,
// sweeping schedule-perturbation seeds (PR 2's harness) reorders the
// physical execution but must not move a single non-wall field — full
// bit-identity of the report after ZeroWall. Only the WallNs fields read
// ambient clocks; everything else derives from virtual time and
// operation counts. A failure here means the metrics layer (or the
// runtime's charge accounting) laundered wall-clock time into a
// deterministic field.
func TestMetamorphicLayer(t *testing.T) {
	var base []byte
	for _, s := range perturbSeeds {
		b, err := syntheticRun(s).ZeroWall().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = b
			continue
		}
		if !bytes.Equal(b, base) {
			t.Errorf("perturb seed %d: report differs from seed %d\n%s",
				s, perturbSeeds[0], firstDiff(b, base))
		}
	}
}

// TestMetamorphicPipeline sweeps the perturbation seeds over full
// assemblies — the 4-rank toy, and at 24 ranks a single-k human run and a
// k ladder: the whole report — every span's virtual time, comm, per-rank
// work and counter, the speculative traversal's included — must be
// bit-identical across seeds and across GOMAXPROCS (alternate seeds run
// on 1 and on 4 procs; CI also runs the whole test at -cpu 1,4), wall
// clocks aside. On top of that the traversal's own invariant is checked
// per run: claims = completed walks.
func TestMetamorphicPipeline(t *testing.T) {
	_, human := pipeline.SimulatedHuman(7, 20000, 20)
	at24 := func(cfg pipeline.Config) func(int64) *pipeline.Result {
		return func(seed int64) *pipeline.Result {
			team := xrt.NewTeam(xrt.Config{Ranks: 24, RanksPerNode: 6, Seed: 7,
				Inject: xrt.Inject{PerturbSeed: seed}})
			res, err := pipeline.Run(team, human, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	for _, c := range []struct {
		name, traverse string
		run            func(seed int64) *pipeline.Result
	}{
		{"toy", "contig-generation/traverse", func(seed int64) *pipeline.Result {
			res, _ := toyRun(t, seed)
			return res
		}},
		{"human24", "contig-generation/traverse", at24(pipeline.Config{K: 31, MinCount: 3})},
		{"ladder24", "contig-generation-k33/traverse",
			at24(pipeline.Config{KmerLens: []int{21, 33}, ContigsOnly: true})},
	} {
		t.Run(c.name, func(t *testing.T) {
			var base []byte
			for i, s := range perturbSeeds {
				procs := runtime.GOMAXPROCS(1 + 3*(i%2))
				rep := c.run(s).Metrics
				runtime.GOMAXPROCS(procs)
				n := rep.Stage(c.traverse).Counters
				if n["walks_claimed"] == 0 || n["walks_claimed"] != n["walks_completed"] {
					t.Errorf("seed %d: claims %d, completed %d", s, n["walks_claimed"], n["walks_completed"])
				}
				b, err := rep.ZeroWall().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = b
				} else if !bytes.Equal(b, base) {
					t.Errorf("perturb seed %d: report differs from seed %d\n%s",
						s, perturbSeeds[0], firstDiff(b, base))
				}
			}
		})
	}
}

// TestMetamorphicIOStage names the io stage in the sweep above: its
// charges are pure deterministic partitioning, so a difference here is a
// fault of the runtime's accounting, not of a stage's algorithm.
func TestMetamorphicIOStage(t *testing.T) {
	res0, _ := toyRun(t, 0)
	io0 := res0.Metrics.ZeroWall().Stage("io")
	for _, s := range perturbSeeds[1:] {
		res, _ := toyRun(t, s)
		io := res.Metrics.ZeroWall().Stage("io")
		if !reflect.DeepEqual(io, io0) {
			t.Errorf("seed %d: io stage profile differs:\n%+v\nvs\n%+v", s, io, io0)
		}
	}
}

package expt

import (
	"fmt"
	"slices"

	"hipmer/internal/xrt"
)

// The scenario groups, as data. Each group is the cell list of one
// robustness claim; Cells concatenates the groups asked for. To cover a
// new combination, append a Cell — Matrix derives what to assert from
// its fields (DESIGN.md "Scenario matrix").

var (
	fullMode    = Mode{MinCount: 3}
	contigsMode = Mode{MinCount: 3, ContigsOnly: true}
	ladderMode  = Mode{KmerLens: []int{21, 33}, MinCount: 3}
	// metaMode is the metagenome ladder of the MetaSweep exhibit.
	metaMode = Mode{KmerLens: []int{21, 33, 55}, MinCount: 2, ContigsOnly: true}

	genomes = []string{"human", "wheat"}
)

// matrixRanks is the rank count single-genome first legs run at; the
// rescale targets are R/2, R and 2R. metaRanks is the metagenome's.
const (
	matrixRanks = 16
	metaRanks   = 8
)

// groups is the matrix in table order.
var groups = []struct {
	name  string
	cells func() []Cell
}{
	{"verify", verifyCells}, {"chaos", chaosCells}, {"crash", crashCells}, {"rescale", rescaleCells},
	{"disk", diskCells}, {"meta", metaCells}, {"cross", crossCells},
}

// Groups lists the group labels in table order.
func Groups() []string {
	var names []string
	for _, g := range groups {
		names = append(names, g.name)
	}
	return names
}

// Cells returns the cells of the named groups, in the order named.
func Cells(names ...string) ([]Cell, error) {
	var out []Cell
	for _, name := range names {
		i := slices.Index(Groups(), name)
		if i < 0 {
			return nil, fmt.Errorf("expt: unknown matrix group %q (groups: %v)", name, Groups())
		}
		for _, c := range groups[i].cells() {
			c.Group = name
			out = append(out, c)
		}
	}
	return out, nil
}

// verify: the canonical contig set is invariant across rank counts, the
// full assembly is bit-identical under schedule perturbation, and the
// unperturbed run satisfies the reference oracle.
func verifyCells() []Cell {
	var out []Cell
	for _, ds := range genomes {
		for _, p := range []int{4, matrixRanks} {
			out = append(out, Cell{Dataset: ds, Mode: contigsMode, Ranks: p, Versus: 1})
		}
		out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks, Oracle: true})
		for _, seed := range []int64{1, 2, 3} {
			out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks, Inject: xrt.Inject{PerturbSeed: seed}})
		}
	}
	return out
}

// chaos: 5% of transmissions lost — high enough that every stage sees
// drops, retransmissions and lost-ack duplicates, low enough that the
// default retry budget is never near exhaustion.
func chaosCells() []Cell {
	var out []Cell
	for _, ds := range genomes {
		for _, seed := range []int64{21, 22, 23, 24} {
			out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks,
				Inject: xrt.Inject{ChaosSeed: seed, DropRate: 0.05}})
		}
	}
	return out
}

// crash: a rank dies inside scaffolding, the most charge-dense stage, so
// every countdown (1..256 charge events) lands mid-stage; a fresh team
// resumes from the checkpoint.
func crashCells() []Cell {
	var out []Cell
	for _, ds := range genomes {
		for _, seed := range []int64{11, 12, 13, 14} {
			out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks,
				Inject: xrt.Inject{FaultSeed: seed, FailStage: "scaffolding"},
				Resume: &Resume{Ranks: matrixRanks}})
		}
	}
	return out
}

// rescale: crash at every checkpointable stage at R ranks, resume each
// partial checkpoint at R/2, R and 2R — single-k and the iterative-k
// ladder — with perturb seeds rotating over the resumes and the last
// stage's resumes on the chaos transport, so re-sharding is proven
// compatible with nondeterministic schedules and the reliability layer.
// The fault seeds are picked so that every first leg crashes, at the tiny
// test scale and at the benchsuite's: a pseudo-merge stage charges each
// rank once and a cleaning stage three times, so 50, 249 and 346 count
// down one charge and 1829 three, and 1829's victim has gap-closing work
// at both scales.
func rescaleCells() []Cell {
	faultSeeds := []int64{50, 249, 346, 1829}
	var out []Cell
	for _, ds := range genomes {
		for _, mode := range []Mode{fullMode, ladderMode} {
			stages := mode.stages()
			for si, stage := range stages {
				for _, p := range []int{matrixRanks / 2, matrixRanks, 2 * matrixRanks} {
					resume := &Resume{Ranks: p, Inject: xrt.Inject{PerturbSeed: int64(1 + len(out)%4)}}
					if si == len(stages)-1 {
						resume.Inject.ChaosSeed = 9
					}
					out = append(out, Cell{Dataset: ds, Mode: mode, Ranks: matrixRanks,
						Inject: xrt.Inject{FaultSeed: faultSeeds[si%len(faultSeeds)], FailStage: stage},
						Resume: resume})
				}
			}
		}
	}
	return out
}

// disk: damage every stage's checkpoint segment with every damage kind
// (the kind cycles with the seed: bit-flip, delete, write-refused, torn
// write); the damaged run still completes, and a resume scrubs and heals.
func diskCells() []Cell {
	var out []Cell
	for _, ds := range genomes {
		for _, stage := range fullMode.stages() {
			for _, seed := range []int64{21, 22, 23, 24} {
				out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks,
					Inject: xrt.Inject{DiskFaultSeed: seed, DiskFailStage: stage},
					Resume: &Resume{Ranks: matrixRanks}})
			}
		}
	}
	return out
}

// meta: the multi-round determinism battery of the metagenome ladder —
// rank invariance, perturbation, the chaos transport, and a crash inside
// each cleaning-stage kind at the middle k, so a round before and a
// round after the crash are replayed or resumed around it.
func metaCells() []Cell {
	cell := Cell{Dataset: "meta", Mode: metaMode, Ranks: metaRanks}
	var out []Cell
	for _, p := range []int{1, 4} {
		c := cell
		c.Ranks, c.Versus = p, metaRanks
		out = append(out, c)
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		c := cell
		c.Inject.PerturbSeed = seed
		out = append(out, c)
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		c := cell
		c.Inject.ChaosSeed = seed
		out = append(out, c)
	}
	for _, stage := range []string{"tip-clip-k33", "bubble-pop-k33", "pseudo-merge-k33"} {
		for _, seed := range []int64{50, 346} {
			c := cell
			c.Inject.FaultSeed, c.Inject.FailStage = seed, stage
			c.Resume = &Resume{Ranks: metaRanks}
			out = append(out, c)
		}
	}
	return out
}

// cross: every failure domain in one run — a checkpoint segment damaged
// early, a rank crash later, and the resume on twice the ranks over a
// lossy transport. No hand-written sweep covered these.
func crossCells() []Cell {
	lossy := xrt.Inject{PerturbSeed: 1, ChaosSeed: 9, DropRate: 0.05}
	var out []Cell
	for _, ds := range genomes {
		out = append(out, Cell{Dataset: ds, Mode: fullMode, Ranks: matrixRanks,
			Inject: xrt.Inject{DiskFaultSeed: 22, DiskFailStage: "contig-generation",
				FaultSeed: 11, FailStage: "scaffolding"},
			Resume: &Resume{Ranks: 2 * matrixRanks, Inject: lossy}})
	}
	return append(out, Cell{Dataset: "meta", Mode: metaMode, Ranks: metaRanks,
		Inject: xrt.Inject{DiskFaultSeed: 21, DiskFailStage: "contig-generation-k33",
			FaultSeed: 50, FailStage: "pseudo-merge-k33"},
		Resume: &Resume{Ranks: 2 * metaRanks, Inject: lossy}})
}

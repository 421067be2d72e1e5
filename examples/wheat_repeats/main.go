// Wheat-like repetitive genome: demonstrates the heavy-hitter k-mer
// analysis optimization (paper §3.1). The genome's tandem and transposon
// repeats give a few k-mers enormous occurrence counts; without special
// handling their owner ranks become hot spots. The example assembles and
// reports the heavy hitters found and the k-mer analysis stage's time; the
// on/off comparison across core counts is Figure 6
// (go run ./cmd/benchsuite -fig6).
//
//	go run ./examples/wheat_repeats
package main

import (
	"fmt"
	"log"

	"hipmer"
)

func main() {
	ref, libs := hipmer.SimWheatLike(11, 150000, 30)
	nReads := 0
	for _, l := range libs {
		nReads += len(l.Reads)
	}
	fmt.Printf("wheat-like dataset: %d reads, %d libraries (inserts", nReads, len(libs))
	for _, l := range libs {
		fmt.Printf(" %d", l.InsertMean)
	}
	fmt.Printf("), %d bp genome, ~75%% repeats\n", len(ref))

	res, err := hipmer.Assemble(libs, hipmer.Options{K: 31, MinCount: 3, Ranks: 96, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nheavy hitters identified: %d\n", res.HeavyHitters)
	fmt.Printf("k-mer analysis (simulated): %v (heavy hitters on vs off: go run ./cmd/benchsuite -fig6)\n",
		res.Metrics.Time("kmer-analysis"))

	fmt.Printf("\nassembly: %d scaffolds, N50 %d\n",
		res.Stats.Sequences, res.Stats.N50)
	v := res.Validate(ref)
	fmt.Printf("validation: coverage %.2f%% (repeats collapse to one copy), "+
		"identity %.4f%%\n", 100*v.CoveredFrac, 100*v.IdentityFrac)
}

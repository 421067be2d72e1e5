// Wheat-like repetitive genome: demonstrates the heavy-hitter k-mer
// analysis optimization (paper §3.1). The genome's tandem and transposon
// repeats give a few k-mers enormous occurrence counts; without special
// handling their owner ranks become hot spots. The example assembles with
// the optimization on and off and compares the k-mer analysis stage.
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

	run := func(disableHH bool) *hipmer.Result {
		res, err := hipmer.Assemble(libs, hipmer.Options{
			K: 31, MinCount: 3, Ranks: 96,
			DisableHeavyHitters: disableHH,
			Seed:                1,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	withHH := run(false)
	withoutHH := run(true)

	fmt.Printf("\nheavy hitters identified: %d\n", withHH.HeavyHitters)
	tHH := withHH.Metrics.Time("kmer-analysis")
	tDef := withoutHH.Metrics.Time("kmer-analysis")
	fmt.Printf("k-mer analysis (simulated): default %v, heavy-hitters %v (%.2fx)\n",
		tDef, tHH, tDef.Seconds()/tHH.Seconds())

	fmt.Printf("\nassembly: %d scaffolds, N50 %d\n",
		withHH.Stats.Sequences, withHH.Stats.N50)
	v := withHH.Validate(ref)
	fmt.Printf("validation: coverage %.2f%% (repeats collapse to one copy), "+
		"identity %.4f%%\n", 100*v.CoveredFrac, 100*v.IdentityFrac)
}

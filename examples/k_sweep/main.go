// K sweep with oracle reuse: assemble at several k-mer lengths, reusing
// the first draft's scaffolds as the §3.2 oracle partitioning for the
// subsequent assemblies — the paper's "optimizing an individual assembly
// by iterating over multiple lengths for the k-mers" use case.
//
//	go run ./examples/k_sweep
package main

import (
	"fmt"
	"log"

	"hipmer"
)

func main() {
	ref, lib := hipmer.SimHumanLike(17, 100000, 30)
	fmt.Printf("sweeping k over a %d bp genome (%d reads)\n", len(ref), len(lib.Reads))

	results, best, err := hipmer.SweepK([]hipmer.Library{lib},
		[]int{21, 31, 41, 51}, hipmer.Options{MinCount: 3, Ranks: 48})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  k   scaffolds   N50      coverage   contig-gen (simulated)")
	for _, r := range results {
		v := r.Result.Validate(ref)
		marker := " "
		if r.K == results[best].K {
			marker = "*"
		}
		oracle := "default layout"
		if r.OracleUsed {
			oracle = "oracle from k=21 draft"
		}
		fmt.Printf("%s %2d   %6d   %7d   %6.2f%%   %v (%s)\n",
			marker, r.K, r.Result.Stats.Sequences, r.Result.Stats.N50,
			100*v.CoveredFrac, r.Result.Metrics.Time("contig-generation"), oracle)
	}
	fmt.Printf("best k by N50: %d\n", results[best].K)
}

// Communication-avoiding reassembly (paper §3.2): assemble one
// individual, build the oracle partitioning from its scaffolds, then
// assemble a second individual of the same species (0.2% diverged) with
// the oracle layout — the de Bruijn traversal's hash-table lookups become
// overwhelmingly rank-local. The default layout, which places the graph
// as the k-mer table, needs no previous assembly; the example prints both.
//
//	go run ./examples/oracle_reassembly
package main

import (
	"fmt"
	"log"

	"hipmer"
)

func main() {
	// Individual 1: many separate chromosome-scale fragments, so the
	// assembly yields many scaffolds and the oracle can deal whole
	// contigs across all ranks for load balance.
	var frags [][]byte
	for i := 0; i < 120; i++ {
		frags = append(frags, hipmer.RandomGenome(int64(100+i), 1500+((i*137)%800)))
	}
	simLib := func(seedBase int64, pieces [][]byte) hipmer.Library {
		var lib hipmer.Library
		lib.Name, lib.InsertMean = "pe350", 350
		for i, f := range pieces {
			part := hipmer.SimReads(seedBase+int64(i), f, 30, 100, 350, 25)
			lib.Reads = append(lib.Reads, part.Reads...)
		}
		return lib
	}
	lib1 := simLib(1000, frags)

	res1, err := hipmer.Assemble([]hipmer.Library{lib1}, hipmer.Options{
		K: 31, MinCount: 3, Ranks: 48,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("individual 1: %d scaffolds assembled (traversal %v simulated)\n",
		res1.Stats.Sequences, res1.Metrics.Time("contig-generation"))

	// Individual 2 of the same species: every chromosome 0.2% diverged.
	var frags2 [][]byte
	var genome2 []byte
	for i, f := range frags {
		m := hipmer.MutateGenome(int64(5000+i), f, 0.002)
		frags2 = append(frags2, m)
		genome2 = append(genome2, m...)
	}
	lib2 := simLib(9000, frags2)

	noOracle, err := hipmer.Assemble([]hipmer.Library{lib2}, hipmer.Options{
		K: 31, MinCount: 3, Ranks: 48,
	})
	if err != nil {
		log.Fatal(err)
	}
	withOracle, err := hipmer.Assemble([]hipmer.Library{lib2}, hipmer.Options{
		K: 31, MinCount: 3, Ranks: 48,
		OracleContigs: res1.ContigSeqs,
	})
	if err != nil {
		log.Fatal(err)
	}

	tNo := noOracle.Metrics.Time("contig-generation")
	tOr := withOracle.Metrics.Time("contig-generation")
	fmt.Printf("individual 2 contig generation (simulated):\n")
	fmt.Printf("  default layout (the k-mer table's): %v\n", tNo)
	fmt.Printf("  oracle layout:                      %v (%.2fx the default's time)\n",
		tOr, tOr.Seconds()/tNo.Seconds())

	vNo := noOracle.Validate(genome2)
	vOr := withOracle.Validate(genome2)
	fmt.Printf("assembly quality unchanged: coverage %.2f%% vs %.2f%%\n",
		100*vNo.CoveredFrac, 100*vOr.CoveredFrac)
}

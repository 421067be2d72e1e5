// Metagenome contig generation: assembles a synthetic wetlands-like
// community (many species, log-normal abundances) through the uncontested
// contig stage only, as the paper does for the Twitchell wetlands data
// (§5.4) — single-genome scaffolding logic would mis-join a metagenome.
//
//	go run ./examples/metagenome
package main

import (
	"fmt"
	"log"
	"sort"

	"hipmer"
)

func main() {
	lib := hipmer.SimMetagenome(13, 400000, 60, 60000)
	fmt.Printf("metagenome dataset: %d reads from 60 species "+
		"(log-normal abundances)\n", len(lib.Reads))

	res, err := hipmer.Assemble([]hipmer.Library{lib}, hipmer.Options{
		K: 31, MinCount: 2, Ranks: 64, ContigsOnly: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("contigs: %d, total %d bp, N50 %d\n",
		res.Stats.Sequences, res.Stats.TotalLen, res.Stats.N50)

	// contig length distribution: abundant species assemble into long
	// contigs, rare ones stay fragmentary or unassembled — the coverage
	// skew the paper describes for metagenomes
	lens := make([]int, 0, len(res.Scaffolds))
	for _, c := range res.Scaffolds {
		lens = append(lens, len(c))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	fmt.Println("ten longest contigs:")
	for i := 0; i < 10 && i < len(lens); i++ {
		fmt.Printf("  %2d. %6d bp\n", i+1, lens[i])
	}
	fmt.Printf("k-mer analysis %v, contig generation %v (simulated)\n",
		res.Metrics.Time("kmer-analysis"), res.Metrics.Time("contig-generation"))
}

// Quickstart: simulate a small genome, assemble it end-to-end, and check
// the result against the reference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"hipmer"
)

func main() {
	// 1. Make a 50 kbp reference genome and a 30x paired-end library.
	ref := hipmer.RandomGenome(42, 50000)
	lib := hipmer.SimReads(43, ref, 30, 100, 400, 30)
	fmt.Printf("simulated %d reads from a %d bp genome\n", len(lib.Reads), len(ref))

	// 2. Assemble on 32 simulated ranks.
	res, err := hipmer.Assemble([]hipmer.Library{lib}, hipmer.Options{
		K: 31, MinCount: 3, Ranks: 32,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the result.
	fmt.Printf("assembled %d scaffold(s), total %d bp, N50 %d\n",
		res.Stats.Sequences, res.Stats.TotalLen, res.Stats.N50)
	fmt.Printf("pipeline: %d contigs, %d/%d gaps closed\n",
		res.ContigCount, res.GapsClosed, res.Gaps)
	for _, st := range res.Metrics.Stages {
		if st.Depth == 0 { // the pipeline stages; sub-spans sit beneath them
			fmt.Printf("  %-18s %12v (simulated)\n", st.Name, res.Metrics.Time(st.Path))
		}
	}
	fmt.Printf("  %-18s %12v (simulated)\n", "total", time.Duration(res.Metrics.VirtualNs))

	// 4. Validate against the reference we simulated from.
	v := res.Validate(ref)
	fmt.Printf("validation: coverage %.2f%%, identity %.4f%%, misassemblies %d\n",
		100*v.CoveredFrac, 100*v.IdentityFrac, v.Misassemblies)

	// 5. Write the assembly as FASTA.
	f, err := os.Create("quickstart_assembly.fasta")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := res.WriteFasta(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart_assembly.fasta")
}

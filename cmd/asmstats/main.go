// Command asmstats reports assembly statistics (N50 etc.) for a FASTA
// file, optionally validating against a reference, and renders metrics
// reports (hipmer -metrics-out) as the paper-style per-module breakdown.
//
// Usage:
//
//	asmstats assembly.fasta [-ref reference.fasta]
//	asmstats -report metrics.json
package main

import (
	"flag"
	"fmt"
	"os"

	"hipmer/internal/fasta"
	"hipmer/internal/metrics"
	"hipmer/internal/stats"
	"hipmer/internal/verify"
)

func main() {
	refPath := flag.String("ref", "", "reference FASTA for validation")
	report := flag.String("report", "", "metrics JSON (from hipmer -metrics-out) to render as a per-stage breakdown table")
	flag.Parse()

	if *report != "" {
		reps, err := metrics.ReadFile(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asmstats: %v\n", err)
			os.Exit(1)
		}
		for i, rep := range reps {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(rep.FormatTable())
		}
		if flag.NArg() == 0 {
			return
		}
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asmstats [-ref reference.fasta] assembly.fasta\n"+
			"       asmstats -report metrics.json")
		os.Exit(2)
	}
	recs, err := fasta.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmstats: %v\n", err)
		os.Exit(1)
	}
	var seqs [][]byte
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	s := stats.Compute(seqs)
	fmt.Printf("sequences: %d\ntotal:     %d\nmax:       %d\nmean:      %.1f\n"+
		"N50:       %d\nN90:       %d\ngap Ns:    %d\n",
		s.Sequences, s.TotalLen, s.MaxLen, s.MeanLen, s.N50, s.N90, s.GapBases)

	if *refPath != "" {
		refs, err := fasta.ReadFile(*refPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asmstats: %v\n", err)
			os.Exit(1)
		}
		var ref []byte
		for _, r := range refs {
			ref = append(ref, r.Seq...)
		}
		v := verify.Place(seqs, ref)
		fmt.Printf("NG50:      %d\nplaced:    %d (unplaced %d, misassembled %d)\n"+
			"coverage:  %.2f%%\nidentity:  %.4f%%\n",
			stats.NG50(seqs, len(ref)), v.Placed, v.Unplaced, v.Misassemblies,
			100*v.CoveredFrac, 100*v.IdentityFrac)
	}
}

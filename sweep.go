package hipmer

import (
	"fmt"
)

// KSweepResult is one assembly of a k sweep.
type KSweepResult struct {
	K      int
	Result *Result
	// OracleUsed reports whether this assembly ran with the oracle layout
	// derived from the first assembly of the sweep.
	OracleUsed bool
}

// SweepK assembles the same libraries at several k-mer lengths — the
// paper's second §3.2 use case: "computational biologists begin the
// genome assembly process with a reasonable initial k value [and]
// different k lengths are then explored to optimize the quality of the
// assembly output". The first k is assembled with the default layout; its
// scaffolds provide the oracle partitioning for every subsequent k, which
// works across k because the oracle is built from contig *sequences*
// ("the new set of contigs will have a high degree of similarity with the
// first draft assembly"). Results are returned in input order along with
// the index of the best assembly by scaffold N50.
func SweepK(libs []Library, ks []int, opt Options) ([]KSweepResult, int, error) {
	if len(ks) == 0 {
		return nil, -1, fmt.Errorf("hipmer: SweepK needs at least one k")
	}
	var out []KSweepResult
	var draft *Result
	for i, k := range ks {
		o := opt
		o.K = k
		if i > 0 && draft != nil {
			// the oracle is built from the draft's *contigs* (§3.2) — they
			// are numerous enough to deal across all ranks, while whole
			// scaffolds would concentrate the k-mers on a few owners
			o.OracleContigs = draft.ContigSeqs
		}
		res, err := Assemble(libs, o)
		if err != nil {
			return nil, -1, fmt.Errorf("hipmer: k=%d: %w", k, err)
		}
		if i == 0 {
			draft = res
		}
		out = append(out, KSweepResult{K: k, Result: res, OracleUsed: i > 0})
	}
	best := 0
	for i, r := range out {
		if r.Result.Stats.N50 > out[best].Result.Stats.N50 {
			best = i
		}
	}
	return out, best, nil
}

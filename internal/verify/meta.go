// Abundance-aware oracle extensions for metagenome assemblies. A
// single-reference placement check cannot judge a metagenome: the
// "reference" is many genomes at wildly uneven abundances, contigs
// legitimately stop at inter-species repeat boundaries, and the
// interesting recovery question is per species, not global. CheckMeta
// judges an assembly against the species set the reads were simulated
// from:
//
//   - Per-species genome fraction: what share of each species' distinct
//     canonical k-mers the assembly contains. Low-abundance species are
//     exactly where iterative-k assembly must beat single-k, so the
//     report keeps the per-species breakdown (and LowestQuartile /
//     MeanFraction make the comparison one line in a test).
//
//   - Cross-species joins: a contig holding several k-mers unique to
//     species A and several unique to species B spliced two organisms —
//     unless the contig also holds k-mers shared between species, in
//     which case it walked an inter-species repeat and the join is
//     tolerated, not a misassembly.
//
// Like the rest of the package, this file sees only raw sequences and
// imports none of the assembler's stages.
package verify

import (
	"fmt"
	"sort"

	"hipmer/internal/kmer"
)

// Species is one reference organism of a simulated metagenome.
type Species struct {
	Name string
	Seq  []byte
	// Abundance is the species' relative abundance (coverage weight) in
	// the simulated community.
	Abundance float64
}

// SpeciesRecovery is one species' recovery verdict.
type SpeciesRecovery struct {
	Name      string
	Abundance float64
	// Kmers is the species' distinct canonical k-mer count; Covered of
	// them occur in the assembly; Fraction = Covered/Kmers.
	Kmers    int
	Covered  int
	Fraction float64
}

// MetaReport is the abundance-aware oracle's verdict.
type MetaReport struct {
	// PerSpecies holds one recovery record per input species, in input
	// order.
	PerSpecies []SpeciesRecovery
	// CrossJoins counts contigs that splice k-mers unique to two
	// different species with no inter-species-shared k-mer to explain
	// the junction — metagenome misassemblies.
	CrossJoins int
	// ToleratedJoins counts multi-species contigs explained by shared
	// k-mers (inter-species repeats), which are not misassemblies.
	ToleratedJoins int

	issueList
}

// Err returns nil when the report is clean, or a summarizing error.
func (r *MetaReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("verify: %d metagenome issues (first: %s)", r.failures(), r.Issues[0])
}

// String summarizes the report in one line.
func (r *MetaReport) String() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAILED (%d issues)", r.failures())
	}
	var mean float64
	for _, s := range r.PerSpecies {
		mean += s.Fraction
	}
	if len(r.PerSpecies) > 0 {
		mean /= float64(len(r.PerSpecies))
	}
	return fmt.Sprintf("verify-meta %s: %d species, mean fraction %.4f, "+
		"%d cross-joins (%d tolerated)",
		status, len(r.PerSpecies), mean, r.CrossJoins, r.ToleratedJoins)
}

// ownerShared marks a k-mer occurring in more than one species.
const ownerShared = int32(-1)

// minAnchorKmers is how many distinct unique k-mers of a species a
// contig must hold before the species counts as "present" in it; fewer
// are noise (a stray shared-looking k-mer below the sharing detector's
// resolution must not flag a chimera).
const minAnchorKmers = 4

// CheckMeta runs the abundance-aware checks: per-species genome
// fraction and cross-species join detection. opt supplies K; Ref is
// ignored (the species are the reference).
func CheckMeta(seqs [][]byte, species []Species, opt Options) *MetaReport {
	opt = opt.withDefaults()
	rep := &MetaReport{}

	// owner: canonical k-mer -> unique species index, or ownerShared.
	owner := make(map[kmer.Kmer]int32, 1<<16)
	perSpecies := make([]map[kmer.Kmer]struct{}, len(species))
	for si, sp := range species {
		set := make(map[kmer.Kmer]struct{}, len(sp.Seq))
		kmer.ForEach(sp.Seq, opt.K, func(_ int, km kmer.Kmer) {
			canon, _ := km.Canonical(opt.K)
			set[canon] = struct{}{}
		})
		perSpecies[si] = set
		for km := range set {
			if prev, ok := owner[km]; ok && prev != int32(si) {
				owner[km] = ownerShared
			} else {
				owner[km] = int32(si)
			}
		}
	}

	// Assembly spectrum, and per-contig species attribution.
	assembled := make(map[kmer.Kmer]struct{}, 1<<16)
	for ci, seq := range seqs {
		counts := map[int32]int{}
		sharedHits := 0
		kmer.ForEach(seq, opt.K, func(_ int, km kmer.Kmer) {
			canon, _ := km.Canonical(opt.K)
			assembled[canon] = struct{}{}
			o, ok := owner[canon]
			if !ok {
				return
			}
			if o == ownerShared {
				sharedHits++
			} else {
				counts[o]++
			}
		})
		var present []int32
		for o, n := range counts {
			if n >= minAnchorKmers {
				present = append(present, o)
			}
		}
		if len(present) >= 2 {
			if sharedHits > 0 {
				rep.ToleratedJoins++
			} else {
				rep.CrossJoins++
				sort.Slice(present, func(a, b int) bool { return present[a] < present[b] })
				rep.issuef("meta-join",
					"contig %d (len %d) splices %d species (e.g. %s and %s) with no shared k-mer",
					ci, len(seq), len(present),
					species[present[0]].Name, species[present[1]].Name)
			}
		}
	}

	for si, sp := range species {
		rec := SpeciesRecovery{Name: sp.Name, Abundance: sp.Abundance,
			Kmers: len(perSpecies[si])}
		for km := range perSpecies[si] {
			if _, ok := assembled[km]; ok {
				rec.Covered++
			}
		}
		if rec.Kmers > 0 {
			rec.Fraction = float64(rec.Covered) / float64(rec.Kmers)
		}
		rep.PerSpecies = append(rep.PerSpecies, rec)
	}
	return rep
}

// LowestQuartile returns the indices of the species in the lowest
// abundance quartile (ceil(n/4), at least one), most rare first. Ties
// break by input order, so the selection is deterministic.
func LowestQuartile(species []Species) []int {
	idx := make([]int, len(species))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return species[idx[a]].Abundance < species[idx[b]].Abundance
	})
	nq := (len(species) + 3) / 4
	if nq < 1 {
		nq = 1
	}
	return idx[:nq]
}

// MeanFraction averages the recovered genome fraction over the given
// species indices (by input order, as in PerSpecies).
func (r *MetaReport) MeanFraction(idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += r.PerSpecies[i].Fraction
	}
	return sum / float64(len(idx))
}

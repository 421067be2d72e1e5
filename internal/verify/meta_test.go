package verify

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/xrt"
)

// metaSpecies builds n random species with distinct abundances; with
// length 400 and k=21 their k-mer sets are disjoint with overwhelming
// probability, so each genome's k-mers are unique to it.
func metaSpecies(seed int64, n, length int) []Species {
	rng := xrt.NewPrng(seed)
	sp := make([]Species, n)
	for i := range sp {
		sp[i] = Species{
			Name:      string(rune('A' + i)),
			Seq:       genome.Random(rng, length),
			Abundance: float64(n - i), // A most abundant, last rarest
		}
	}
	return sp
}

// TestCheckMetaFullRecovery: assembling each species' exact genome
// recovers fraction 1.0 everywhere with no joins.
func TestCheckMetaFullRecovery(t *testing.T) {
	sp := metaSpecies(1, 4, 400)
	seqs := make([][]byte, len(sp))
	for i, s := range sp {
		seqs[i] = s.Seq
	}
	rep := CheckMeta(seqs, sp, Options{K: 21})
	if !rep.OK() || rep.CrossJoins != 0 {
		t.Fatalf("clean assembly flagged: %s", rep)
	}
	for _, r := range rep.PerSpecies {
		if r.Fraction != 1.0 {
			t.Fatalf("species %s fraction %.3f, want 1.0", r.Name, r.Fraction)
		}
		if r.Covered != r.Kmers || r.Kmers == 0 {
			t.Fatalf("species %s covered %d of %d", r.Name, r.Covered, r.Kmers)
		}
	}
}

// TestCheckMetaPartialRecovery: covering only half a genome reports a
// proportional fraction and never a join.
func TestCheckMetaPartialRecovery(t *testing.T) {
	sp := metaSpecies(2, 2, 400)
	seqs := [][]byte{sp[0].Seq, sp[1].Seq[:200]}
	rep := CheckMeta(seqs, sp, Options{K: 21})
	if rep.CrossJoins != 0 {
		t.Fatalf("partial recovery flagged as join: %s", rep)
	}
	f := rep.PerSpecies[1].Fraction
	if f <= 0.3 || f >= 0.7 {
		t.Fatalf("half-genome fraction %.3f, want ~0.47", f)
	}
	if rep.PerSpecies[0].Fraction != 1.0 {
		t.Fatalf("full species fraction %.3f", rep.PerSpecies[0].Fraction)
	}
}

// TestCheckMetaCrossJoin: a contig splicing two species with no shared
// k-mer bridging them is a misassembly.
func TestCheckMetaCrossJoin(t *testing.T) {
	sp := metaSpecies(3, 3, 400)
	chimera := append(append([]byte{}, sp[0].Seq[:100]...), sp[1].Seq[:100]...)
	rep := CheckMeta([][]byte{chimera}, sp, Options{K: 21})
	if rep.CrossJoins != 1 || rep.OK() {
		t.Fatalf("chimera not flagged: %s", rep)
	}
	if !strings.Contains(rep.Issues[0].Detail, "splices") {
		t.Fatalf("issue detail: %s", rep.Issues[0].Detail)
	}
	if err := rep.Err(); err == nil {
		t.Fatal("Err() nil on failing report")
	}
}

// TestCheckMetaToleratedJoin: when the junction region is genuinely
// shared between the two species (an inter-species repeat), the join is
// tolerated, not a misassembly.
func TestCheckMetaToleratedJoin(t *testing.T) {
	rng := xrt.NewPrng(4)
	repeat := genome.Random(rng, 60)
	a := append(append(append([]byte{}, genome.Random(rng, 200)...), repeat...), genome.Random(rng, 200)...)
	b := append(append(append([]byte{}, genome.Random(rng, 200)...), repeat...), genome.Random(rng, 200)...)
	sp := []Species{
		{Name: "A", Seq: a, Abundance: 2},
		{Name: "B", Seq: b, Abundance: 1},
	}
	// A contig walking from A's flank across the repeat into B's flank:
	// exactly how an assembler legitimately traverses a shared region.
	join := append(append(append([]byte{}, a[150:200]...), repeat...), b[260:310]...)
	rep := CheckMeta([][]byte{join}, sp, Options{K: 21})
	if rep.CrossJoins != 0 || rep.ToleratedJoins != 1 {
		t.Fatalf("repeat-bridged join misclassified: %s", rep)
	}
	if !rep.OK() {
		t.Fatalf("tolerated join produced issues: %s", rep)
	}
}

// TestCheckMetaAnchorThreshold: fewer than minAnchorKmers stray k-mers
// of a second species must not flag a chimera.
func TestCheckMetaAnchorThreshold(t *testing.T) {
	sp := metaSpecies(5, 2, 400)
	// 23 bases of species B contribute 3 k-mers at k=21 — below the
	// 4-k-mer anchor floor.
	graze := append(append([]byte{}, sp[0].Seq...), sp[1].Seq[:23]...)
	rep := CheckMeta([][]byte{graze}, sp, Options{K: 21})
	if rep.CrossJoins != 0 {
		t.Fatalf("sub-anchor contamination flagged: %s", rep)
	}
}

// TestLowestQuartile: selection size is ceil(n/4) with a floor of one,
// ordered rarest first, ties broken by input order.
func TestLowestQuartile(t *testing.T) {
	mk := func(ab ...float64) []Species {
		sp := make([]Species, len(ab))
		for i, a := range ab {
			sp[i] = Species{Abundance: a}
		}
		return sp
	}
	cases := []struct {
		ab   []float64
		want []int
	}{
		{[]float64{5, 1, 3}, []int{1}},
		{[]float64{4, 3, 2, 1}, []int{3}},
		{[]float64{9, 8, 7, 6, 5}, []int{4, 3}},
		{[]float64{1, 1, 2, 2, 3, 3, 4, 4}, []int{0, 1}},
		{[]float64{7}, []int{0}},
	}
	for _, c := range cases {
		got := LowestQuartile(mk(c.ab...))
		if len(got) != len(c.want) {
			t.Fatalf("quartile(%v) = %v, want %v", c.ab, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("quartile(%v) = %v, want %v", c.ab, got, c.want)
			}
		}
	}
}

// TestMeanFraction: averages over the given index subset only.
func TestMeanFraction(t *testing.T) {
	rep := &MetaReport{PerSpecies: []SpeciesRecovery{
		{Fraction: 1.0}, {Fraction: 0.5}, {Fraction: 0.0},
	}}
	if m := rep.MeanFraction([]int{0, 1}); m != 0.75 {
		t.Fatalf("mean = %v, want 0.75", m)
	}
	if m := rep.MeanFraction(nil); m != 0 {
		t.Fatalf("mean of empty = %v", m)
	}
}

// TestCheckMetaIssueCap: maxIssues bounds the stored issue list; the
// rest are counted as Dropped and still reflected in Err.
func TestCheckMetaIssueCap(t *testing.T) {
	const n = maxIssues + 3
	sp := metaSpecies(6, 4, 400)
	var chims [][]byte
	for i := 0; i < n; i++ {
		c := append(append([]byte{}, sp[0].Seq[i*10:i*10+100]...), sp[1].Seq[i*10:i*10+100]...)
		chims = append(chims, c)
	}
	rep := CheckMeta(chims, sp, Options{K: 21})
	if rep.CrossJoins != n {
		t.Fatalf("cross-joins = %d, want %d", rep.CrossJoins, n)
	}
	if len(rep.Issues) != maxIssues || rep.Dropped != 3 {
		t.Fatalf("issues %d / dropped %d, want %d / 3", len(rep.Issues), rep.Dropped, maxIssues)
	}
	if !strings.Contains(rep.String(), "FAILED") {
		t.Fatalf("String() = %s", rep.String())
	}
	if !bytes.Contains([]byte(rep.Err().Error()), []byte(fmt.Sprintf("%d metagenome issues", n))) {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

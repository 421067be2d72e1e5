// Package stats computes assembly quality statistics (N50/NG50, length
// distributions) and the distribution summaries the metrics report uses.
// The check against the reference an assembly was simulated from — the
// accuracy check the paper delegates to the Assemblathon studies — is
// internal/verify's.
package stats

import (
	"fmt"
	"sort"
)

// AsmStats summarizes an assembly.
type AsmStats struct {
	Sequences int
	TotalLen  int
	MaxLen    int
	MeanLen   float64
	N50       int
	N90       int
	GapBases  int // N characters
}

// Compute summarizes the given sequences.
func Compute(seqs [][]byte) AsmStats {
	var s AsmStats
	lens := make([]int, 0, len(seqs))
	for _, q := range seqs {
		s.Sequences++
		s.TotalLen += len(q)
		if len(q) > s.MaxLen {
			s.MaxLen = len(q)
		}
		for _, b := range q {
			if b == 'N' {
				s.GapBases++
			}
		}
		lens = append(lens, len(q))
	}
	if s.Sequences > 0 {
		s.MeanLen = float64(s.TotalLen) / float64(s.Sequences)
	}
	s.N50 = nxx(lens, s.TotalLen, 50)
	s.N90 = nxx(lens, s.TotalLen, 90)
	return s
}

// NG50 is N50 computed against the true genome size instead of the
// assembly size.
func NG50(seqs [][]byte, genomeLen int) int {
	lens := make([]int, 0, len(seqs))
	for _, q := range seqs {
		lens = append(lens, len(q))
	}
	return nxx(lens, genomeLen, 50)
}

func nxx(lens []int, total, pct int) int {
	if total <= 0 || len(lens) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	target := total * pct / 100
	acc := 0
	for _, l := range lens {
		acc += l
		if acc >= target {
			return l
		}
	}
	return lens[len(lens)-1]
}

func (s AsmStats) String() string {
	return fmt.Sprintf("seqs=%d total=%d max=%d N50=%d N90=%d gapN=%d",
		s.Sequences, s.TotalLen, s.MaxLen, s.N50, s.N90, s.GapBases)
}

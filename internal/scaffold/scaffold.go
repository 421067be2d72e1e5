// Package scaffold implements stage 3 of the pipeline (paper §4): the
// seven parallel scaffolding modules between contig generation and gap
// closing — contig depths and termination states, bubble identification
// and merging, read-to-contig alignment (via the aligner package),
// insert-size estimation, splint and span location, contig-link
// generation, and ordering/orientation of contigs into scaffolds.
package scaffold

import (
	"math"

	"hipmer/internal/aligner"
	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// Options configures scaffolding.
type Options struct {
	// K is the assembly k-mer length (for overlaps, seeds and depth windows).
	K int
	// PopBubbles enables diploid bubble merging (default true; set
	// DisableBubbles to turn off).
	DisableBubbles bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 31
	}
	return o
}

// longEnough reports whether the contig takes part in scaffolding: one
// shorter than k holds no k-mer to seed an alignment.
func (o Options) longEnough(sc *SContig) bool { return len(sc.Seq) >= o.K }

// SContig is a scaffolding contig: a contig, or a chain of contigs merged
// through their junction k-mers by bubble merging.
type SContig struct {
	ID  int64
	Seq []byte
	// Members lists the original contig IDs folded into this contig by
	// bubble merging (just the own ID when unmerged).
	Members []int64
}

// ReadLib is one read library: paired reads (records 2i and 2i+1 are
// mates) distributed across ranks.
type ReadLib struct {
	Name        string
	ReadsByRank [][]fastq.Record
	// InsertHint is used when too few pairs map within one contig to
	// estimate the insert size (tiny test datasets).
	InsertHint int
}

// EndL / EndR name the two ends of a contig in link records.
const (
	EndL byte = 'L'
	EndR byte = 'R'
)

// Link is a consolidated tie between two contig ends: leaving contig A
// via end EndA arrives at contig B via end EndB, with an estimated gap
// (negative = the contigs overlap, a splint).
type Link struct {
	A, B       int64
	EndA, EndB byte
	Gap        float64
	GapSD      float64
	Splints    int
	Spans      int
}

// Support returns the total read support of the link.
func (l Link) Support() int { return l.Splints + l.Spans }

// Member is one placed contig within a scaffold.
type Member struct {
	ContigID int64
	Flipped  bool
	// GapBefore is the estimated gap between this member and the previous
	// one (unused for the first member; negative means overlap).
	GapBefore int
}

// Scaffold is an ordered, oriented chain of contigs.
type Scaffold struct {
	ID      int
	Members []Member
}

// Result is the output of the scaffolding stage.
type Result struct {
	// Contigs maps contig ID → scaffolding contig (after bubble merging).
	Contigs map[int64]*SContig
	// ContigsByRank distributes the surviving contigs for downstream
	// parallel phases (aligner index ownership).
	ContigsByRank [][]*SContig
	// Scaffolds in decreasing total-length order.
	Scaffolds []*Scaffold
	// Alignments per library: alns[lib][rank][readIdx] = alignments.
	Alignments [][][][]aligner.Alignment
	// Index is the seed index over merged contigs (reused by gap closing).
	Index *aligner.Index
	// InsertSize per library (mean, sd).
	InsertMean, InsertSD []float64
	// Links that survived support filtering.
	Links []Link
	// Bubbles is the number of popped bubble contigs.
	Bubbles int
	// Phase timings.
	DepthPhase, BubblePhase, AlignPhase, InsertPhase,
	SplintSpanPhase, OrderPhase xrt.PhaseStats
}

// Run executes all scaffolding modules.
func Run(team *xrt.Team, ctgRes *contig.Result,
	kt *dht.Table[kmer.Kmer, kanalysis.KmerData],
	libs []ReadLib, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}

	// §4.2 bubble identification and path compression; §4.1's depths are
	// measured inside it for the bubble candidates only
	team.BeginSpan("bubbles")
	merged, mergedByRank := mergeBubbles(team, ctgRes, kt, opt, res)
	team.AddCounter("bubbles_popped", int64(res.Bubbles))
	team.EndSpan()
	res.Contigs = merged
	res.ContigsByRank = mergedByRank

	// §4.3 read-to-contig alignment (merAligner)
	ctgForIndex := make([][]*contig.Contig, len(mergedByRank))
	for r, cs := range mergedByRank {
		for _, sc := range cs {
			if !opt.longEnough(sc) {
				continue
			}
			ctgForIndex[r] = append(ctgForIndex[r], &contig.Contig{ID: sc.ID, Seq: sc.Seq})
		}
	}
	vStart := team.VirtualNow()
	team.BeginSpan("merAligner")
	res.Index = aligner.BuildIndex(team, ctgForIndex, aligner.Options{SeedLen: opt.K})
	for _, lib := range libs {
		res.Alignments = append(res.Alignments, aligner.AlignAll(team, res.Index, lib.ReadsByRank))
	}
	team.EndSpan()
	res.AlignPhase = xrt.PhaseStats{Virtual: team.VirtualNow() - vStart}

	// §4.4 insert-size estimation per library
	team.BeginSpan("inserts")
	estimateInserts(team, libs, res)
	team.EndSpan()

	// §4.5–4.6 splints, spans, and link generation
	team.BeginSpan("splint-span")
	links := generateLinks(team, libs, merged, res, opt)
	res.Links = links
	team.AddCounter("links", int64(len(links)))
	team.EndSpan()

	// §4.7 ordering and orientation
	team.BeginSpan("ordering")
	orderAndOrient(team, merged, links, res, opt)
	team.AddCounter("scaffolds", int64(len(res.Scaffolds)))
	team.EndSpan()
	return res
}

// trimmedMeanSD computes mean and standard deviation of a histogram after
// trimming frac of the mass from each tail.
func trimmedMeanSD(hist map[int]int64, frac float64) (mean, sd float64, n int64) {
	var total int64
	lo, hi := math.MaxInt32, math.MinInt32
	for v, c := range hist {
		total += c
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	trim := int64(float64(total) * frac)
	// walk from both ends removing trim mass
	loCut, hiCut := lo, hi
	var acc int64
	for v := lo; v <= hi && acc < trim; v++ {
		if c := hist[v]; c > 0 {
			acc += c
			loCut = v
		}
	}
	acc = 0
	for v := hi; v >= lo && acc < trim; v-- {
		if c := hist[v]; c > 0 {
			acc += c
			hiCut = v
		}
	}
	var sum, sumSq int64 // integer accumulation: order-independent
	for v, c := range hist {
		if v < loCut || v > hiCut {
			continue
		}
		sum += int64(v) * c
		sumSq += int64(v) * int64(v) * c
		n += c
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean = float64(sum) / float64(n)
	variance := float64(sumSq)/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance), n
}

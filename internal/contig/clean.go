// Graph-cleaning passes for the iterative-k metagenome pipeline
// (MetaHipMer's outer loop, after the tip-clipping and bubble-popping
// design of MEGAHIT). The vanilla pipeline keeps only UU chains, so a
// metagenome's error structures survive as separate short contigs: a
// sequencing-error branch becomes a shallow dead-end contig hanging off a
// junction (a tip), and a SNP or strain variant becomes a pair of
// similar-length contigs spanning the same two junction k-mers (a
// bubble). Both passes follow the deterministic gathered-graph idiom of
// scaffold §4.2 bubble merging: every rank contributes compact endpoint
// records via AllGather, performs the identical doomed-set computation,
// and prunes only its own contig partition — so the surviving set is
// bit-identical regardless of rank count or schedule.
//
// MergeRounds implements the cross-round pseudo-read merge: instead of a
// global dedup, carried contigs are kept only when the new round does not
// already represent them, judged by k-mer containment plus localized
// bubble detection (a carried contig whose flanks both anchor inside one
// new contig is an allelic branch the higher-k assembly already chose).
package contig

import (
	"math"
	"sort"

	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// CleanOptions configures the graph-cleaning passes.
type CleanOptions struct {
	// K is the k-mer length the contigs were assembled at (default 31).
	K int
}

func (o CleanOptions) withDefaults() CleanOptions {
	if o.K <= 0 {
		o.K = 31
	}
	return o
}

const (
	// tipMaxLenK: a clippable tip is shorter than 3k (MEGAHIT's 2k..3k
	// band); longer dead ends are genuine sequence.
	tipMaxLenK = 3
	// tipDepthRatio is the dominance requirement: a tip is clipped only
	// when its depth is at most this fraction of a rival path through the
	// same junction. Below 1, mutual clipping is impossible, which is what
	// keeps the pass idempotent.
	tipDepthRatio = 0.5
	// bubbleMaxLenK: a poppable bubble branch is at most 4k long.
	bubbleMaxLenK = 4
)

// CleanStats summarizes one cleaning pass.
type CleanStats struct {
	// TipsClipped and BubblesPopped count removed contigs (one of the two
	// is always zero: each pass fills only its own).
	TipsClipped   int64
	BubblesPopped int64
	// BasesRemoved is the total sequence length removed.
	BasesRemoved int64
	// Survivors is the global contig count after the pass.
	Survivors int64
}

// Add folds another pass's stats into s (per-round accumulation).
func (s *CleanStats) Add(o CleanStats) {
	s.TipsClipped += o.TipsClipped
	s.BubblesPopped += o.BubblesPopped
	s.BasesRemoved += o.BasesRemoved
	s.Survivors = o.Survivors
}

// EndRec is the compact endpoint record of the gathered-graph idiom: what
// tip clipping and bubble popping — here and in scaffold's §4.2 bubble
// merging — need to know about one contig.
type EndRec struct {
	ID         int64
	Len        int
	Depth      float64
	NbrL, NbrR kmer.Kmer
	HasL, HasR bool
}

// GatherEnds AllGathers the endpoint records of every rank's partition
// (mine is called inside the SPMD region, once per rank) and returns the
// global, ID-sorted list — identical on every rank by construction.
func GatherEnds(team *xrt.Team, mine func(rank int) []EndRec) []EndRec {
	gathered := make([][]EndRec, team.Config().Ranks)
	team.Run(func(r *xrt.Rank) {
		all := r.AllGather(mine(r.ID))
		if r.ID == 0 {
			for i, a := range all {
				gathered[i] = a.([]EndRec)
			}
		}
		r.Barrier()
	})
	var recs []EndRec
	for _, g := range gathered {
		recs = append(recs, g...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// gatherContigEnds is GatherEnds over a contig result.
func gatherContigEnds(team *xrt.Team, res *Result, k int) []EndRec {
	return GatherEnds(team, func(rank int) []EndRec {
		var mine []EndRec
		for _, c := range res.Contigs[rank] {
			mine = append(mine, EndRec{
				ID: c.ID, Len: len(c.Seq), Depth: c.Depth(k),
				NbrL: c.NbrL, NbrR: c.NbrR,
				HasL: c.HasNbrL, HasR: c.HasNbrR,
			})
		}
		return mine
	})
}

// BubbleGroups is the grouping half of the allelic-bubble rule: contigs of
// at most 4k bases whose two ends meet the same unordered pair of junction
// k-mers are branches of one locus. It returns the groups of two or more
// branches, in no particular order; depth plays no part in the grouping,
// and only these records' depths are read by BubbleLosers.
func BubbleGroups(recs []EndRec, k int) [][]EndRec {
	type pairKey struct{ a, b kmer.Kmer }
	groups := make(map[pairKey][]EndRec)
	for _, rec := range recs {
		if !rec.HasL || !rec.HasR || rec.Len > bubbleMaxLenK*k {
			continue
		}
		a, b := rec.NbrL, rec.NbrR
		if b.Less(a) {
			a, b = b, a
		}
		groups[pairKey{a, b}] = append(groups[pairKey{a, b}], rec)
	}
	var multi [][]EndRec
	for _, g := range groups {
		if len(g) >= 2 {
			multi = append(multi, g)
		}
	}
	return multi
}

// BubbleLosers is the allelic-bubble rule: in each of the BubbleGroups the
// depth-dominant branch (ID tiebreak) is kept, and every other branch of
// similar length — within [2/3, 4/3] of the winner's, or within k bases of
// it — is a loser; dissimilar-length members stay.
func BubbleLosers(recs []EndRec, k int) map[int64]bool {
	losers := make(map[int64]bool)
	for _, g := range BubbleGroups(recs, k) {
		sort.Slice(g, func(i, j int) bool {
			if g[i].Depth != g[j].Depth {
				return g[i].Depth > g[j].Depth
			}
			return g[i].ID < g[j].ID
		})
		ref := g[0].Len
		for _, loser := range g[1:] {
			if loser.Len*3 >= ref*2 && loser.Len*3 <= ref*4 ||
				max(loser.Len-ref, ref-loser.Len) <= k {
				losers[loser.ID] = true
			}
		}
	}
	return losers
}

// pruneContigs removes the doomed set from every rank's partition and
// recomputes the global count; the per-rank work is charged like a scan
// of the gathered records.
func pruneContigs(team *xrt.Team, res *Result, doomed map[int64]bool, items int) {
	team.Run(func(r *xrt.Rank) {
		kept := res.Contigs[r.ID][:0]
		for _, c := range res.Contigs[r.ID] {
			if !doomed[c.ID] {
				kept = append(kept, c)
			}
		}
		res.Contigs[r.ID] = kept
		r.ChargeItems(items/r.N() + 1)
		n := r.AllReduceInt64(int64(len(kept)), func(a, b int64) int64 { return a + b })
		if r.ID == 0 {
			res.NumContigs = n
		}
		r.Barrier()
	})
}

// ClipTips removes tip contigs from res in place: a short contig with
// exactly one dead end whose attached end meets a junction some strictly
// depth-dominant rival also passes through. The rule never removes a
// vertex on the dominant (true-genome) walk — a contig qualifies only by
// being shallow relative to a rival — and is idempotent: removal can only
// shrink junction rival sets, so no contig becomes clippable by a second
// pass.
func ClipTips(team *xrt.Team, res *Result, opt CleanOptions) CleanStats {
	opt = opt.withDefaults()
	recs := gatherContigEnds(team, res, opt.K)

	type end struct {
		id    int64
		depth float64
	}
	junction := make(map[kmer.Kmer][]end)
	for _, rec := range recs {
		if rec.HasL {
			junction[rec.NbrL] = append(junction[rec.NbrL], end{rec.ID, rec.Depth})
		}
		if rec.HasR {
			junction[rec.NbrR] = append(junction[rec.NbrR], end{rec.ID, rec.Depth})
		}
	}

	doomed := make(map[int64]bool)
	var bases int64
	for _, rec := range recs {
		if rec.Len >= tipMaxLenK*opt.K {
			continue
		}
		// a tip dangles: one end attached to a junction, the other dead.
		// Isolated contigs (both ends dead) are whole low-coverage
		// fragments and are never clipped.
		var at kmer.Kmer
		switch {
		case rec.HasL && !rec.HasR:
			at = rec.NbrL
		case rec.HasR && !rec.HasL:
			at = rec.NbrR
		default:
			continue
		}
		for _, e := range junction[at] {
			if e.id != rec.ID && rec.Depth <= tipDepthRatio*e.depth {
				doomed[rec.ID] = true
				bases += int64(rec.Len)
				break
			}
		}
	}
	pruneContigs(team, res, doomed, len(recs))
	return CleanStats{
		TipsClipped: int64(len(doomed)), BasesRemoved: bases,
		Survivors: res.NumContigs,
	}
}

// PopBubbles removes the allelic bubble branches (BubbleLosers) from res
// in place. Exactly one branch of each allelic group survives; since only
// whole contigs are removed, the surviving set's k-mer spectrum stays
// contained in the input's. A second pass finds every group reduced to
// its winner plus dissimilar-length members and removes nothing.
func PopBubbles(team *xrt.Team, res *Result, opt CleanOptions) CleanStats {
	opt = opt.withDefaults()
	recs := gatherContigEnds(team, res, opt.K)
	doomed := BubbleLosers(recs, opt.K)
	var bases int64
	for _, rec := range recs {
		if doomed[rec.ID] {
			bases += int64(rec.Len)
		}
	}
	pruneContigs(team, res, doomed, len(recs))
	return CleanStats{
		BubblesPopped: int64(len(doomed)), BasesRemoved: bases,
		Survivors: res.NumContigs,
	}
}

// MergeStats summarizes one cross-round pseudo-read merge.
type MergeStats struct {
	// Carried is the number of contigs carried in from earlier rounds.
	Carried int64
	// Represented were dropped because the new round contains them
	// (k-mer containment at the merge k).
	Represented int64
	// PoppedOld were dropped by localized bubble detection: partially
	// contained, with both flanks anchoring inside one new contig.
	PoppedOld int64
	// Rescued were carried forward into the merged set.
	Rescued int64
	// Total is the merged set size.
	Total int64
}

// mergeContainment is the k-mer containment fraction above which a
// carried contig counts as represented by the new round.
const mergeContainment = 0.95

// mergeBubbleBand is the containment fraction above which a partially
// represented carried contig is tested as a localized bubble.
const mergeBubbleBand = 0.5

// pseudoWeightOf derives the pseudo-read weight of a contig assembled at
// k: its mean depth, clamped to [2, 255]. The floor keeps a carried
// contig's k-mers above the MinCount screen of the next round (the whole
// point of carrying it); the cap keeps extreme-depth repeats from
// distorting the next round's counts.
func pseudoWeightOf(c *Contig, k int) uint32 {
	w := int64(math.Round(c.Depth(k)))
	if w < 2 {
		w = 2
	}
	if w > 255 {
		w = 255
	}
	return uint32(w)
}

// MergeRounds folds the carried contig set from earlier iterative-k
// rounds into the current round's cleaned contigs. prev is nil on the
// first round. mergeK is the containment resolution (the sweep's smallest
// k — every contig from any round is at least that long); curK is the
// current round's assembly k, used to stamp pseudo-read weights on the
// new contigs. The returned set is renumbered by content hash, so IDs are
// deterministic regardless of which round or rank produced each contig.
func MergeRounds(team *xrt.Team, prev []*Contig, cur *Result, mergeK, curK int) ([]*Contig, MergeStats) {
	curAll := cur.All()
	for _, c := range curAll {
		if c.PseudoWeight == 0 {
			c.PseudoWeight = pseudoWeightOf(c, curK)
		}
	}

	st := MergeStats{Carried: int64(len(prev))}
	work := 0
	var kept []*Contig
	if len(prev) > 0 {
		// spectrum of the new round at mergeK; each k-mer remembers the
		// smallest containing contig ID so flank anchoring is deterministic
		idx := make(map[kmer.Kmer]int64)
		for _, c := range curAll {
			kmer.ForEach(c.Seq, mergeK, func(_ int, km kmer.Kmer) {
				canon, _ := km.Canonical(mergeK)
				if old, ok := idx[canon]; !ok || c.ID < old {
					idx[canon] = c.ID
				}
				work++
			})
		}
		for _, c := range prev {
			n, hit := 0, 0
			first, last := int64(-1), int64(-1)
			kmer.ForEach(c.Seq, mergeK, func(_ int, km kmer.Kmer) {
				canon, _ := km.Canonical(mergeK)
				id, ok := idx[canon]
				if !ok {
					id = -1
				} else {
					hit++
				}
				if n == 0 {
					first = id
				}
				last = id
				n++
			})
			work += n
			frac := 0.0
			if n > 0 {
				frac = float64(hit) / float64(n)
			}
			switch {
			case frac >= mergeContainment:
				st.Represented++
			case frac >= mergeBubbleBand && first >= 0 && first == last:
				// localized bubble: both flanks anchor in the same new
				// contig, so the carried sequence is an allelic branch the
				// higher-k round (assembled with this contig's pseudo-read
				// support) already resolved
				st.PoppedOld++
			default:
				st.Rescued++
				kept = append(kept, c)
			}
		}
	}

	merged := make([]*Contig, 0, len(curAll)+len(kept))
	merged = append(merged, curAll...)
	merged = append(merged, kept...)
	type keyed struct {
		key contigKey
		c   *Contig
	}
	ks := make([]keyed, len(merged))
	for i, c := range merged {
		ks[i] = keyed{keyOf(c.Seq), c}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key.h1 != ks[j].key.h1 {
			return ks[i].key.h1 < ks[j].key.h1
		}
		if ks[i].key.h2 != ks[j].key.h2 {
			return ks[i].key.h2 < ks[j].key.h2
		}
		return ks[i].c.ID < ks[j].c.ID
	})
	for i, kc := range ks {
		kc.c.ID = int64(i) + 1
		merged[i] = kc.c
	}
	st.Total = int64(len(merged))

	// the merge is computed identically everywhere; charge each rank its
	// share of the spectrum build + carried scan
	team.Run(func(r *xrt.Rank) {
		r.ChargeItems(work/r.N() + 1)
		r.Barrier()
	})
	return merged, st
}

// ResultFromContigs redistributes a merged contig list into a Result,
// dealing contigs round-robin by ID order — the deterministic layout
// downstream stages (scaffolding, output) partition work by.
func ResultFromContigs(team *xrt.Team, cs []*Contig) *Result {
	return &Result{Contigs: xrt.Deal(cs, team.Config().Ranks), NumContigs: int64(len(cs))}
}

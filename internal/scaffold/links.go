package scaffold

import (
	"math"
	"sort"

	"hipmer/internal/aligner"
	"hipmer/internal/dht"
	"hipmer/internal/xrt"
)

// estimateInserts implements §4.4: each rank histograms the insert sizes
// of sampled pairs whose both ends align full-length within a single
// contig; the local histograms are merged into a global one per library
// from which a trimmed mean and standard deviation are computed.
func estimateInserts(team *xrt.Team, libs []ReadLib, alns [][][][]aligner.Alignment, res *Result) {
	// insertTrimFrac of the pairs is trimmed from each histogram tail.
	const insertTrimFrac = 0.01
	res.InsertMean = make([]float64, len(libs))
	res.InsertSD = make([]float64, len(libs))
	for li, lib := range libs {
		hists := make([]map[int]int64, team.Config().Ranks)
		res.InsertPhase = team.Run(func(r *xrt.Rank) {
			local := make(map[int]int64)
			mine := alns[li][r.ID]
			for i := 0; i+1 < len(mine); i += 2 {
				a1s, a2s := mine[i], mine[i+1]
				if len(a1s) == 0 || len(a2s) == 0 {
					continue
				}
				a1, a2 := a1s[0], a2s[0]
				if a1.ContigID != a2.ContigID || a1.Flipped == a2.Flipped {
					continue
				}
				if !nearFull(a1) || !nearFull(a2) {
					continue
				}
				lo := min(a1.CStart-a1.RStart, a2.CStart-a2.RStart)
				hi := max(a1.CEnd+(a1.ReadLen-a1.REnd), a2.CEnd+(a2.ReadLen-a2.REnd))
				if hi > lo {
					local[hi-lo]++
				}
				r.ChargeItems(1)
			}
			hists[r.ID] = local
			r.Barrier()
		})
		global := make(map[int]int64)
		for _, h := range hists {
			for v, c := range h {
				global[v] += c
			}
		}
		mean, sd, n := trimmedMeanSD(global, insertTrimFrac)
		if n < 20 && lib.InsertHint > 0 {
			mean, sd = float64(lib.InsertHint), float64(lib.InsertHint)/10
		}
		res.InsertMean[li], res.InsertSD[li] = mean, sd
	}
}

func nearFull(a aligner.Alignment) bool {
	return (a.REnd-a.RStart)*10 >= a.ReadLen*9
}

// linkKey identifies an oriented contig-pair connection, normalized so
// the smaller contig ID comes first.
type linkKey struct {
	A, B       int64
	EndA, EndB byte
}

func normalizeKey(k linkKey) linkKey {
	if k.B < k.A {
		k.A, k.B = k.B, k.A
		k.EndA, k.EndB = k.EndB, k.EndA
	}
	return k
}

// linkAgg accumulates link evidence. Gap values are quantized to integers
// before aggregation so that sums are independent of arrival order and
// results are bit-deterministic across runs.
type linkAgg struct {
	Splints  int32
	Spans    int32
	GapSum   int64
	GapSqSum int64
}

func mergeLinkAgg(old, in linkAgg, _ bool) linkAgg {
	old.Splints += in.Splints
	old.Spans += in.Spans
	old.GapSum += in.GapSum
	old.GapSqSum += in.GapSqSum
	return old
}

// anchor describes where a mate's contig meets the gap between the mates:
// the contig end facing the other mate, and the distance from the
// fragment's end (the mate's start) to that contig end. Each mate reads
// into the fragment, so the 5' mate's exit and the 3' mate's entry follow
// one rule: unflipped, the mate runs toward increasing coordinates and
// faces R; flipped, toward decreasing ones and faces L.
func anchor(a aligner.Alignment) (end byte, d int) {
	if !a.Flipped {
		p := a.CStart - a.RStart
		return EndR, a.ContigLen - p
	}
	p := a.CEnd + a.RStart
	return EndL, p
}

// generateLinks implements §4.5–§4.6: splints (a read bridging the ends of
// two overlapping contigs) and spans (a pair whose mates land on two
// different contigs) are located by independent passes over the local
// alignments; the evidence is accumulated in a distributed hash table of
// contig pairs with aggregating stores, and each rank then assesses its
// local buckets to produce supported links.
func generateLinks(team *xrt.Team, libs []ReadLib, alns [][][][]aligner.Alignment,
	res *Result, opt Options) []Link {
	// minLinkSupport is the number of concordant read observations needed
	// before a splint/span link is trusted.
	const minLinkSupport = 2
	table := dht.New[linkKey, linkAgg](team, dht.Options[linkKey]{
		Hash: func(k linkKey) uint64 {
			h := xrt.Splitmix64(uint64(k.A)<<32 ^ uint64(k.B))
			return xrt.Splitmix64(h ^ uint64(k.EndA)<<8 ^ uint64(k.EndB))
		},
		ItemBytes: 40,
	}, mergeLinkAgg)

	const endSlack = 8
	res.SplintSpanPhase = team.Run(func(r *xrt.Rank) {
		for li := range libs {
			insert := res.InsertMean[li]
			insertSD := res.InsertSD[li]
			mine := alns[li][r.ID]
			// --- splints: single reads spanning two contig ends ----------
			for _, as := range mine {
				if len(as) < 2 {
					continue
				}
				r.ChargeItems(1)
				for x := 0; x < len(as); x++ {
					for y := 0; y < len(as); y++ {
						if x == y || as[x].ContigID == as[y].ContigID {
							continue
						}
						a, b := as[x], as[y]
						// a must come first in read order
						if a.RStart > b.RStart {
							continue
						}
						// a anchored to its trailing end, b to its leading end
						if !anchoredTail(a) || !anchoredHead(b) {
							continue
						}
						exitA, exitPos := readFrameExit(a)
						entryB, entryPos := readFrameEntry(b)
						gap := entryPos - exitPos
						if gap > endSlack || gap < -3*opt.K {
							continue // too far apart or absurd overlap
						}
						key := normalizeKey(linkKey{A: a.ContigID, B: b.ContigID,
							EndA: exitA, EndB: entryB})
						table.Put(r, key, linkAgg{Splints: 1,
							GapSum: int64(gap), GapSqSum: int64(gap) * int64(gap)})
					}
				}
			}
			// --- spans: mate pairs on different contigs -------------------
			if insert <= 0 {
				continue
			}
			for i := 0; i+1 < len(mine); i += 2 {
				a1s, a2s := mine[i], mine[i+1]
				if len(a1s) == 0 || len(a2s) == 0 {
					continue
				}
				a1, a2 := a1s[0], a2s[0]
				if a1.ContigID == a2.ContigID {
					continue
				}
				if !nearFull(a1) || !nearFull(a2) {
					continue
				}
				r.ChargeItems(1)
				endA, dA := anchor(a1)
				endB, dB := anchor(a2)
				gap := insert - float64(dA) - float64(dB)
				if gap < -insert/2 || gap > insert+4*insertSD {
					continue // inconsistent with the library
				}
				g := int64(math.Round(gap))
				key := normalizeKey(linkKey{A: a1.ContigID, B: a2.ContigID,
					EndA: endA, EndB: endB})
				table.Put(r, key, linkAgg{Spans: 1, GapSum: g, GapSqSum: g * g})
			}
		}
		table.Flush(r)
		r.Barrier()

		// evidence is complete; the assessment pass below only reads, so
		// publish the table frozen for lock-free bucket iteration
		table.Freeze(r)
	})

	// assess local buckets, then gather the (small) link set everywhere
	p := team.Config().Ranks
	perRank := make([][]Link, p)
	team.Run(func(r *xrt.Rank) {
		var mine []Link
		table.LocalRange(r, func(k linkKey, v linkAgg) bool {
			n := int(v.Splints + v.Spans)
			if n < minLinkSupport {
				return true
			}
			mean := float64(v.GapSum) / float64(n)
			variance := float64(v.GapSqSum)/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			mine = append(mine, Link{
				A: k.A, B: k.B, EndA: k.EndA, EndB: k.EndB,
				Gap: mean, GapSD: math.Sqrt(variance),
				Splints: int(v.Splints), Spans: int(v.Spans),
			})
			return true
		})
		all := r.AllGather(mine)
		if r.ID == 0 {
			for i, a := range all {
				perRank[i] = a.([]Link)
			}
		}
		r.Barrier()
	})
	var links []Link
	for _, ls := range perRank {
		links = append(links, ls...)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		if links[i].B != links[j].B {
			return links[i].B < links[j].B
		}
		if links[i].EndA != links[j].EndA {
			return links[i].EndA < links[j].EndA
		}
		return links[i].EndB < links[j].EndB
	})
	return links
}

// readFrameExit projects the trailing end of the aligned contig into read
// coordinates and names which contig end that is.
func readFrameExit(a aligner.Alignment) (end byte, pos int) {
	if !a.Flipped {
		return EndR, a.REnd + (a.ContigLen - a.CEnd)
	}
	return EndL, a.REnd + a.CStart
}

// readFrameEntry projects the leading end of the aligned contig into read
// coordinates and names which contig end that is.
func readFrameEntry(a aligner.Alignment) (end byte, pos int) {
	if !a.Flipped {
		return EndL, a.RStart - a.CStart
	}
	return EndR, a.RStart - (a.ContigLen - a.CEnd)
}

// anchoredTail reports whether the alignment reaches (nearly) the contig
// end that trails in read direction.
func anchoredTail(a aligner.Alignment) bool {
	const slack = 5
	if !a.Flipped {
		return a.ContigLen-a.CEnd <= slack
	}
	return a.CStart <= slack
}

// anchoredHead reports whether the alignment starts (nearly) at the contig
// end that leads in read direction.
func anchoredHead(a aligner.Alignment) bool {
	const slack = 5
	if !a.Flipped {
		return a.CStart <= slack
	}
	return a.ContigLen-a.CEnd <= slack
}

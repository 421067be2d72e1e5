package scaffold

import (
	"sort"

	"hipmer/internal/contig"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// mergeBubbles implements §4.2: contigs whose two ends terminate at the
// same pair of junction k-mers are bubbles — alternative haplotype paths
// in diploid genomes. The bubble-contig graph (contigs contracted to
// supervertices, connected through junction k-mers) is orders of magnitude
// smaller than the de Bruijn graph, so its edge list is gathered to every
// rank and each rank performs the identical contraction; merged contigs
// are then re-distributed. The depth-dominant path through each bubble is
// kept and linear chains through junctions are compressed into single
// sequences.
func mergeBubbles(team *xrt.Team, scByRank [][]*SContig, opt Options,
	res *Result) (map[int64]*SContig, [][]*SContig) {
	p := team.Config().Ranks
	k := opt.K

	recs := contig.GatherEnds(team, func(rank int) []contig.EndRec {
		var mine []contig.EndRec
		for _, sc := range scByRank[rank] {
			mine = append(mine, contig.EndRec{
				ID: sc.ID, Len: len(sc.Seq), Depth: sc.Depth,
				NbrL: sc.NbrL, NbrR: sc.NbrR,
				HasL: sc.HasNbrL, HasR: sc.HasNbrR,
			})
		}
		return mine
	})

	// index every contig
	byID := make(map[int64]*SContig)
	for _, cs := range scByRank {
		for _, sc := range cs {
			byID[sc.ID] = sc
		}
	}

	// similar lengths → allelic variants; keep the deepest path
	var popped map[int64]bool
	if !opt.DisableBubbles {
		popped = contig.BubbleLosers(recs, k)
	}
	res.Bubbles = len(popped)

	// junction adjacency among surviving contigs
	junction := make(map[kmer.Kmer][]endpoint)
	for _, rec := range recs {
		if popped[rec.ID] {
			continue
		}
		if rec.HasL {
			junction[rec.NbrL] = append(junction[rec.NbrL], endpoint{rec.ID, EndL})
		}
		if rec.HasR {
			junction[rec.NbrR] = append(junction[rec.NbrR], endpoint{rec.ID, EndR})
		}
	}
	edges := make(map[endpoint]endpoint)
	for _, eps := range junction {
		if len(eps) != 2 || eps[0].id == eps[1].id {
			continue // still ambiguous (true fork) or self-loop
		}
		edges[eps[0]] = eps[1]
		edges[eps[1]] = eps[0]
	}

	// contract chains deterministically (identical on every rank)
	merged := make(map[int64]*SContig)
	used := make(map[int64]bool)
	other := func(s byte) byte {
		if s == EndL {
			return EndR
		}
		return EndL
	}
	for _, rec := range recs {
		if popped[rec.ID] || used[rec.ID] {
			continue
		}
		// find chain start: walk left-ish until an endpoint without edge
		cur := endpoint{rec.ID, EndL}
		seenStart := map[int64]bool{rec.ID: true}
		for {
			prev, ok := edges[cur]
			if !ok {
				break
			}
			nid := prev.id
			if seenStart[nid] {
				break // cycle; start anywhere
			}
			seenStart[nid] = true
			cur = endpoint{nid, other(prev.side)}
		}
		// cur is the chain's starting endpoint (entry side with no edge)
		chain := assembleChain(cur, edges, byID, k, other)
		for _, id := range chain.Members {
			used[id] = true
		}
		merged[chain.ID] = chain
	}

	// charge the gathered-graph computation modestly and redistribute
	flat := make([]*SContig, 0, len(merged))
	for _, sc := range merged {
		flat = append(flat, sc)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].ID < flat[j].ID })
	out := xrt.Deal(flat, p)
	res.BubblePhase = team.Run(func(r *xrt.Rank) {
		r.ChargeItems(len(recs))
		r.Barrier()
	})
	return merged, out
}

// assembleChain walks a chain from its starting endpoint, merging member
// sequences through their junction k-mers. The walk enters each contig on
// the side named by the endpoint and exits on the other side.
func assembleChain(start endpoint, edges map[endpoint]endpoint,
	byID map[int64]*SContig, k int, other func(byte) byte) *SContig {
	first := byID[start.id]
	seq := append([]byte(nil), first.Seq...)
	flipFirst := start.side == EndR
	if flipFirst {
		seq = kmer.RevCompString(seq)
	}
	members := []int64{first.ID}
	minID := first.ID
	depthSum := first.Depth * float64(len(first.Seq))
	lenSum := len(first.Seq)

	// outer-end metadata comes from the chain's two extremities
	outL := first
	outLFlipped := flipFirst
	cur := endpoint{first.ID, other(start.side)} // exit endpoint
	var last *SContig = first
	lastFlipped := flipFirst
	seen := map[int64]bool{first.ID: true}
	for {
		nxt, ok := edges[cur]
		if !ok {
			break
		}
		if seen[nxt.id] {
			break // cycle guard
		}
		seen[nxt.id] = true
		sc := byID[nxt.id]
		nseq := sc.Seq
		flipped := nxt.side == EndR
		if flipped {
			nseq = kmer.RevCompString(nseq)
		}
		joined, ok2 := joinThroughJunction(seq, nseq, k)
		if !ok2 {
			break // defensive: junction inconsistent, stop the chain here
		}
		seq = joined
		members = append(members, sc.ID)
		if sc.ID < minID {
			minID = sc.ID
		}
		depthSum += sc.Depth * float64(len(sc.Seq))
		lenSum += len(sc.Seq)
		last, lastFlipped = sc, flipped
		cur = endpoint{nxt.id, other(nxt.side)}
	}

	out := &SContig{
		ID:      minID,
		Seq:     seq,
		Members: members,
	}
	if lenSum > 0 {
		out.Depth = depthSum / float64(lenSum)
	}
	// outer termination metadata, oriented to the merged sequence
	if !outLFlipped {
		out.TermL, out.NbrL, out.HasNbrL = outL.TermL, outL.NbrL, outL.HasNbrL
	} else {
		out.TermL, out.NbrL, out.HasNbrL = outL.TermR, outL.NbrR, outL.HasNbrR
	}
	if !lastFlipped {
		out.TermR, out.NbrR, out.HasNbrR = last.TermR, last.NbrR, last.HasNbrR
	} else {
		out.TermR, out.NbrR, out.HasNbrR = last.TermL, last.NbrL, last.HasNbrL
	}
	return out
}

// joinThroughJunction concatenates two oriented sequences that are
// separated by exactly one junction k-mer: the junction's first k-1 bases
// must equal a's suffix and its last k-1 bases must equal b's prefix, so
// the joined sequence is a + b[k-2:]. The junction k-mer overlaps a by
// k-1 bases, contributing exactly one new base, and b starts one base
// after the junction.
func joinThroughJunction(a, b []byte, k int) ([]byte, bool) {
	if len(a) < k-1 || len(b) < k-1 {
		return nil, false
	}
	// b's first k-1 bases should equal a's last k-2 bases + one new base:
	// verify the k-2 overlap between a and b directly.
	if string(a[len(a)-(k-2):]) != string(b[:k-2]) {
		return nil, false
	}
	return append(a, b[k-2:]...), true
}

// endpoint identifies one side of one contig in the bubble-contig graph.
type endpoint struct {
	id   int64
	side byte
}

package scaffold

import (
	"sort"

	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/kanalysis"
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
// kept (depth is measured for its branches only) and linear chains through
// junctions are compressed into single sequences.
func mergeBubbles(team *xrt.Team, ctgRes *contig.Result,
	kt *dht.Table[kmer.Kmer, kanalysis.KmerData], opt Options,
	res *Result) (map[int64]*SContig, [][]*SContig) {
	p := team.Config().Ranks
	k := opt.K

	// index every contig
	all := ctgRes.All()
	byID := make(map[int64]*contig.Contig, len(all))
	merged := make(map[int64]*SContig, len(all))
	junctions := false
	for _, c := range all {
		byID[c.ID] = c
		junctions = junctions || c.HasNbrL || c.HasNbrR
	}
	if !junctions {
		// No junction metadata (every re-entry round): the graph has no
		// edge, so every contig is a chain of its own, dealt by ID.
		flat := make([]*SContig, len(all))
		for i, c := range all {
			flat[i] = &SContig{ID: c.ID, Seq: c.Seq, Members: []int64{c.ID}}
			merged[c.ID] = flat[i]
		}
		return merged, xrt.Deal(flat, p)
	}

	recs := contig.GatherEnds(team, func(rank int) []contig.EndRec {
		var mine []contig.EndRec
		for _, c := range ctgRes.Contigs[rank] {
			mine = append(mine, contig.EndRec{
				ID: c.ID, Len: len(c.Seq),
				NbrL: c.NbrL, NbrR: c.NbrR,
				HasL: c.HasNbrL, HasR: c.HasNbrR,
			})
		}
		return mine
	})

	// similar lengths → allelic variants; keep the deepest path
	var popped map[int64]bool
	if !opt.DisableBubbles {
		team.BeginSpan("depths")
		cands := measureDepths(team, ctgRes, contig.BubbleGroups(recs, k), kt, k, res)
		team.EndSpan()
		popped = contig.BubbleLosers(cands, k)
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

// measureDepths implements §4.1 for the members of the bubble groups, the
// only contigs whose depth is read: each rank averages the counts of its
// own members' k-mers in the frozen (lock-free) k-mer table, and the
// records are all-gathered with their depths filled in.
func measureDepths(team *xrt.Team, ctgRes *contig.Result, groups [][]contig.EndRec,
	kt *dht.Table[kmer.Kmer, kanalysis.KmerData], k int, res *Result) []contig.EndRec {
	want := make(map[int64]contig.EndRec)
	for _, g := range groups {
		for _, rec := range g {
			want[rec.ID] = rec
		}
	}
	var gathered []any
	res.DepthPhase = team.Run(func(r *xrt.Rank) {
		var mine []contig.EndRec
		for _, c := range ctgRes.Contigs[r.ID] {
			rec, ok := want[c.ID]
			if !ok {
				continue
			}
			var sum uint64
			var n int
			kmer.ForEachCanonical(c.Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
				if d, ok := kt.Get(r, canon); ok {
					sum += uint64(d.Count)
					n++
				}
			})
			if n > 0 {
				rec.Depth = float64(sum) / float64(n)
			}
			mine = append(mine, rec)
		}
		if all := r.AllGather(mine); r.ID == 0 {
			gathered = all
		}
		r.Barrier()
	})
	var measured []contig.EndRec
	for _, part := range gathered {
		measured = append(measured, part.([]contig.EndRec)...)
	}
	return measured
}

// assembleChain walks a chain from its starting endpoint, merging member
// sequences through their junction k-mers. The walk enters each contig on
// the side named by the endpoint and exits on the other side.
func assembleChain(start endpoint, edges map[endpoint]endpoint,
	byID map[int64]*contig.Contig, k int, other func(byte) byte) *SContig {
	first := byID[start.id]
	seq := append([]byte(nil), first.Seq...)
	if start.side == EndR {
		seq = kmer.RevCompString(seq)
	}
	members := []int64{first.ID}
	minID := first.ID
	cur := endpoint{first.ID, other(start.side)} // exit endpoint
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
		c := byID[nxt.id]
		nseq := c.Seq
		if nxt.side == EndR {
			nseq = kmer.RevCompString(nseq)
		}
		joined, ok2 := joinThroughJunction(seq, nseq, k)
		if !ok2 {
			break // defensive: junction inconsistent, stop the chain here
		}
		seq = joined
		members = append(members, c.ID)
		if c.ID < minID {
			minID = c.ID
		}
		cur = endpoint{nxt.id, other(nxt.side)}
	}
	return &SContig{ID: minID, Seq: seq, Members: members}
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

// Package gapclose implements the final pipeline stage (paper §4.8):
// assembling reads across the gaps between the contigs of scaffolds.
// Reads are projected into gaps in parallel, each by where scaffolding
// placed it (its top read-to-contig alignment); the gaps
// are then closed by a succession of methods: spanning (a single read
// bridges the gap), k-mer walks with iteratively increasing k
// (mini-assembly, attempted from both sides), and finally patching (an
// acceptable overlap between the two partial walks).
//
// The paper deals whole gaps round-robin, because the methods differ in
// cost by orders of magnitude. Here the unit of dealing is finer — a chunk
// of a gap's reads scanned for a spanning one, then one (gap, k) step of
// its ladder — and each unit's cost is known from the gap's read bases, or
// bounded by its estimated size, before it runs, so units are dealt
// longest first and a large gap's scan and ladder run on the ranks idle
// beside it (closeGaps, dealScan, planWave).
package gapclose

import (
	"bytes"
	"slices"
	"time"

	"hipmer/internal/aligner"
	"hipmer/internal/dht"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

// Options configures gap closing.
type Options struct {
	// K and KmerTable enable closure verification: every closed gap's
	// junction k-mers (the windows spanning flank↔closure boundaries) are
	// looked up in the frozen global k-mer table — the same irregular
	// read pattern as the walks. Verification only reports confidence
	// (Result.Verified); it never changes closures. Both zero disables it.
	K         int
	KmerTable *dht.Table[kmer.Kmer, kanalysis.KmerData]
}

// Method records how a gap was closed.
type Method int

const (
	// Unclosed means every method failed; the gap remains as Ns.
	Unclosed Method = iota
	// Spanned: one read covered the whole gap.
	Spanned
	// Walked: a k-mer walk crossed the gap.
	Walked
	// Patched: two partial walks overlapped acceptably.
	Patched
)

func (m Method) String() string {
	switch m {
	case Spanned:
		return "spanned"
	case Walked:
		return "walked"
	case Patched:
		return "patched"
	default:
		return "unclosed"
	}
}

// gapID addresses one gap: scaffold index and member index of the member
// after the gap.
type gapID struct {
	scaf int
	mem  int
}

// gapState is the working record for one gap.
type gapState struct {
	id          gapID
	left, right []byte // flanks oriented in scaffold direction
	est         int    // estimated gap size
	reads       [][]byte
}

// Result reports gap closing outcomes.
type Result struct {
	Gaps, Closed                      int
	BySpanning, ByWalking, ByPatching int
	// Verified counts closures whose junction k-mers were confirmed in
	// the global k-mer table (0 when verification is disabled); Checked
	// is how many closures were examined.
	Verified, Checked int
	// ScaffoldSeqs are the final sequences, closures spliced in.
	ScaffoldSeqs [][]byte
}

// Run closes the gaps of the scaffolding result. libs must be the same
// libraries (same rank distribution) used during scaffolding.
func Run(team *xrt.Team, scafRes *scaffold.Result, libs []scaffold.ReadLib,
	opt Options) *Result {
	res := &Result{}
	gaps := collectGaps(team, scafRes, libs)
	res.Gaps = len(gaps)
	closures := closeGaps(team, gaps, opt, res)
	res.ScaffoldSeqs = splice(scafRes, gaps, closures)
	return res
}

// closure is the outcome of one gap.
type closure struct {
	method Method
	seq    []byte
}

const (
	// flankLen is how much flanking contig sequence a gap keeps.
	flankLen = 200
	// maxGapReads caps the read set projected into one gap: repeat-flanked
	// gaps otherwise attract the reads of every repeat copy, making a
	// single closure arbitrarily expensive.
	maxGapReads = 400
)

// collectGaps enumerates the gaps of the scaffolds and projects the reads
// aligned near each into it.
func collectGaps(team *xrt.Team, scafRes *scaffold.Result, libs []scaffold.ReadLib) []*gapState {
	p := team.Config().Ranks

	// enumerate gaps and index them by adjacent contig end
	var gaps []*gapState
	gapAt := make(map[gapEndKey]int) // (contigID, contig-frame end) → gap index
	for si, s := range scafRes.Scaffolds {
		for mi := 1; mi < len(s.Members); mi++ {
			prev, cur := s.Members[mi-1], s.Members[mi]
			if cur.GapBefore <= 0 {
				continue
			}
			pc, cc := scafRes.Contigs[prev.ContigID], scafRes.Contigs[cur.ContigID]
			left := orient(pc.Seq, prev.Flipped)
			right := orient(cc.Seq, cur.Flipped)
			g := &gapState{
				id:   gapID{si, mi},
				left: tail(left, flankLen), right: head(right, flankLen),
				est: cur.GapBefore,
			}
			idx := len(gaps)
			gaps = append(gaps, g)
			gapAt[gapEndKey{prev.ContigID, exitEnd(prev)}] = idx
			gapAt[gapEndKey{cur.ContigID, entryEnd(cur)}] = idx
		}
	}

	// project reads into gaps: any pair with a mate placed within insert
	// distance of a gap-adjacent contig end contributes both mates
	type tagged struct {
		gap int
		seq []byte
	}
	taggedByRank := make([][]tagged, p)
	team.BeginSpan("project-reads")
	team.Run(func(r *xrt.Rank) {
		var mine []tagged
		for li, lib := range libs {
			insert := int(scafRes.InsertMean[li])
			if insert <= 0 {
				insert = 500
			}
			placed := scafRes.Placements[li][r.ID]
			reads := lib.ReadsByRank[r.ID]
			for i := 0; i+1 < len(placed); i += 2 {
				gi := -1
				for _, a := range placed[i : i+2] {
					if !a.Placed() {
						continue
					}
					// near either end of its contig?
					if int(a.CStart) < insert {
						if idx, ok := gapAt[gapEndKey{a.ContigID, scaffold.EndL}]; ok {
							gi = idx
						}
					}
					if int(a.ContigLen-a.CEnd) < insert {
						if idx, ok := gapAt[gapEndKey{a.ContigID, scaffold.EndR}]; ok {
							gi = idx
						}
					}
				}
				if gi >= 0 {
					mine = append(mine,
						tagged{gi, reads[i].Seq}, tagged{gi, reads[i+1].Seq})
					r.ChargeItems(2)
				}
			}
		}
		taggedByRank[r.ID] = mine
		r.Barrier()
	})
	team.EndSpan()
	for _, ts := range taggedByRank {
		for _, t := range ts {
			if len(gaps[t.gap].reads) < maxGapReads {
				gaps[t.gap].reads = append(gaps[t.gap].reads, t.seq)
			}
		}
	}

	return gaps
}

// closeGaps closes the gaps in three steps, each ended by the join of its
// phase, and fills in res's outcome counts.
//
//  1. Every gap's reads are scanned for a spanning read in contiguous
//     chunks: chunk 0 on the gap's home rank, the others on ranks that
//     hold no gap (see dealScan). After the join the home keeps the answer
//     of the lowest chunk that found one — the first spanning read, which
//     is what scanning the reads in order on one rank finds.
//  2. The k ladder of every unspanned gap runs as (gap, k) tasks, wave by
//     wave (see planWave). A ladder step needs nothing of the gap's other k
//     values, and the gap whose ladder never succeeds is the critical path of
//     the whole stage when it climbs it on one rank.
//  3. Each gap's home rank reduces its steps — smallest k that walked across
//     wins, else the longest partial walks are patched — and verifies the
//     closure.
//
// The paper deals whole gaps round-robin (§4.8); the closures are the same,
// because step 3 yields exactly what climbing the ladder one k after the
// other would. What the split moves between ranks is charged: a rank that
// scans a chunk or runs a step away from the gap's home fetches the reads
// and sends its answer back.
//
// The close span counts each step's virtual time (scan_ns, ladder_ns over
// all waves, settle_ns), the chunks scanned (scan_chunks), the bases walked
// by lookup (walk_steps) and those copied round a cycle (walk_filled).
func closeGaps(team *xrt.Team, gaps []*gapState, opt Options, res *Result) []closure {
	p := team.Config().Ranks
	jobs := newJobs(gaps)
	pool := newScratchPool()
	team.BeginSpan("close")

	scanning := dealScan(jobs, p)
	scan := team.Run(func(r *xrt.Rank) {
		for _, c := range scanning[r.ID] {
			c.run(r, pool)
		}
	})
	var chunks int64
	for _, j := range jobs {
		chunks += int64(len(j.chunks))
		if i := slices.IndexFunc(j.chunks, func(c *scanChunk) bool { return c.found }); i >= 0 {
			j.closure = closure{Spanned, j.chunks[i].seq}
		}
	}

	var ladders []*gapJob
	for _, j := range jobs {
		if j.anchored && j.method == Unclosed {
			j.steps = make([]ladderStep, ladderLen(j.g))
			ladders = append(ladders, j)
		}
	}
	ladders = heaviestFirst(ladders, (*gapJob).stepCost)
	var primaries, waves, walked, filled int64
	var ladder time.Duration
	for {
		var open []*gapJob
		for _, j := range ladders {
			if j.open() {
				open = append(open, j)
			}
		}
		if len(open) == 0 {
			break
		}
		byRank := planWave(open, p)
		waves++
		primaries += int64(len(open))
		more := slices.ContainsFunc(open, func(j *gapJob) bool { return j.tried < len(j.steps) })
		wave := team.Run(func(r *xrt.Rank) {
			crossed := int64(0)
			for i := range byRank[r.ID] {
				t := &byRank[r.ID][i]
				j, st, k := t.job, &t.job.steps[t.step], walkK+t.step*walkKStep
				if j.home != r.ID {
					r.ChargeLookup(j.home, j.readBases)
				}
				s := pool.get()
				s.graph.build(j.g.reads, k)
				t.steps, t.filled = s.walkStep(j.g, k, st)
				pool.put(s)
				r.ChargeItems(buildFactor*j.readBases + walkFactor*t.steps + fillItems(t.filled))
				if j.home != r.ID {
					r.ChargeStoreBatch(j.home, 1, len(st.seq)+len(st.partL)+len(st.partR))
				}
				if st.ok {
					crossed++
				}
			}
			// which gaps are still open decides the next wave's deal on
			// every rank: one small collective, when a next wave can follow
			if more {
				r.AllReduceInt64(crossed, func(a, b int64) int64 { return a + b })
			}
		})
		ladder += wave.Virtual
		for _, ts := range byRank {
			for _, t := range ts {
				walked += int64(t.steps)
				filled += int64(t.filled)
			}
		}
	}

	settle := team.Run(func(r *xrt.Rank) {
		for _, c := range scanning[r.ID] {
			if j := c.job; j.home == r.ID {
				j.settle(r, pool, opt)
			}
		}
	})

	closures := make([]closure, len(gaps))
	var tasks, discarded int64
	for i, j := range jobs {
		closures[i] = j.closure
		tasks += int64(j.tried)
		discarded += int64(j.discarded)
		if j.checked {
			res.Checked++
		}
		if j.confirmed {
			res.Verified++
		}
		switch j.method {
		case Spanned:
			res.BySpanning++
		case Walked:
			res.ByWalking++
		case Patched:
			res.ByPatching++
		}
	}
	res.Closed = res.BySpanning + res.ByWalking + res.ByPatching
	team.AddCounter("gaps", int64(res.Gaps))
	team.AddCounter("closed", int64(res.Closed))
	team.AddCounter("by_spanning", int64(res.BySpanning))
	team.AddCounter("by_walking", int64(res.ByWalking))
	team.AddCounter("by_patching", int64(res.ByPatching))
	team.AddCounter("ladder_tasks", tasks)
	team.AddCounter("ladder_waves", waves)
	team.AddCounter("speculative_tasks", tasks-primaries)
	team.AddCounter("speculative_discarded", discarded)
	team.AddCounter("verify_checked", int64(res.Checked))
	team.AddCounter("verify_confirmed", int64(res.Verified))
	team.AddCounter("scan_chunks", chunks)
	team.AddCounter("walk_steps", walked)
	team.AddCounter("walk_filled", filled)
	team.AddCounter("scan_ns", int64(scan.Virtual))
	team.AddCounter("ladder_ns", int64(ladder))
	team.AddCounter("settle_ns", int64(settle.Virtual))
	team.EndSpan()
	return closures
}

// settle is step 3 for one gap, on its home rank: the ladder's steps
// reduced to a closure, a patch attempted where no k walked across, and
// the closure verified when verification is on.
//
// The scratch goes back even when a charge unwinds with an injected crash,
// so that the ranks still waiting for one reach the poisoned barrier
// instead of hanging on the pool.
func (j *gapJob) settle(r *xrt.Rank, pool *scratchPool, opt Options) {
	s := pool.get()
	defer pool.put(s)
	if at, bestL, bestR := reduceLadder(j.steps[:j.tried]); at >= 0 {
		j.closure = closure{Walked, j.steps[at].seq}
		j.discarded = j.tried - 1 - at
	} else if len(bestL) > 0 && len(bestR) > 0 {
		r.ChargeItems(patchFactor * min(len(j.g.left)+len(bestL), aligner.OverlapWindow))
		if seq, ok := s.patch(j.g, bestL, bestR); ok {
			j.closure = closure{Patched, seq}
		}
	}
	if j.method != Unclosed && opt.KmerTable != nil && opt.K > 0 {
		j.checked = true
		j.confirmed = s.verifyClosure(r, j.g, j.seq, opt)
	}
}

// splice renders the final scaffold sequences, closures in place.
func splice(scafRes *scaffold.Result, gaps []*gapState, closures []closure) [][]byte {
	var seqs [][]byte
	gapIdxByID := make(map[gapID]int)
	for i, g := range gaps {
		gapIdxByID[g.id] = i
	}
	for si, s := range scafRes.Scaffolds {
		var out []byte
		for mi, m := range s.Members {
			sc := scafRes.Contigs[m.ContigID]
			seq := orient(sc.Seq, m.Flipped)
			if mi == 0 {
				out = append(out, seq...)
				continue
			}
			if gi, ok := gapIdxByID[gapID{si, mi}]; ok && closures[gi].method != Unclosed {
				out = append(out, closures[gi].seq...)
				out = append(out, seq...)
				continue
			}
			// fall back to the scaffold-level join (Ns or splint overlap)
			out = appendWithGap(out, seq, m.GapBefore)
		}
		seqs = append(seqs, out)
	}
	return seqs
}

type gapEndKey struct {
	contig int64
	end    byte
}

func exitEnd(m scaffold.Member) byte {
	if m.Flipped {
		return scaffold.EndL
	}
	return scaffold.EndR
}

func entryEnd(m scaffold.Member) byte {
	if m.Flipped {
		return scaffold.EndR
	}
	return scaffold.EndL
}

func orient(s []byte, flipped bool) []byte {
	if flipped {
		return kmer.RevCompString(s)
	}
	return s
}

func tail(s []byte, n int) []byte {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

func head(s []byte, n int) []byte {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func appendWithGap(out, seq []byte, gap int) []byte {
	if gap > 0 {
		for j := 0; j < gap; j++ {
			out = append(out, 'N')
		}
		return append(out, seq...)
	}
	// Only merge overlaps long enough for exact matching to verify; short
	// "matches" succeed by chance and would shift the downstream frame.
	const minVerifiedOverlap = 16
	ov := -gap
	if ov >= minVerifiedOverlap && ov <= len(out) && ov <= len(seq) &&
		bytes.Equal(out[len(out)-ov:], seq[:ov]) {
		return append(out, seq[ov:]...)
	}
	out = append(out, 'N')
	return append(out, seq...)
}

// Package aligner implements merAligner (paper §4.3 and the IPDPS'15
// companion paper): a fully parallel seed-and-extend read-to-contig
// aligner. The seed index — every k-mer of every contig — lives in a
// distributed hash table built with aggregating stores, and lookups during
// alignment are the same irregular-access pattern as the rest of the
// pipeline. Candidate (contig, strand, diagonal) bins are voted on by
// seed hits and the best candidates are extended along the diagonal.
package aligner

import (
	"sort"

	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// Options configures the aligner.
type Options struct {
	// SeedLen is the seed k-mer length (defaults to 19; must be odd).
	SeedLen int
	// Stride is the spacing between read seed positions (defaults to
	// SeedLen/2, ensuring overlapping coverage).
	Stride int
	// MaxSeedHits caps the hit list per seed; seeds hit more often come
	// from repeats and are skipped, as merAligner does.
	MaxSeedHits int
	// MaxCandidates bounds how many candidate diagonals are extended.
	MaxCandidates int
	// MinAlnLen is the minimum aligned length to report.
	MinAlnLen int
	// MinIdentity is the minimum fraction of matching bases.
	MinIdentity float64
	// CacheContigs is the per-rank software cache capacity for fetched
	// contig sequences (merAligner caches these; repeated extensions
	// against the same contig then cost local time only). 0 uses the
	// default of 1024; negative disables caching.
	CacheContigs int
}

// seedCacheSlots is the per-rank direct-mapped software-cache slot count
// in front of remote seed lookups (the second merAligner cache of the
// companion paper: overlapping reads look up the same seed k-mers).
const seedCacheSlots = 8192

func (o Options) withDefaults() Options {
	if o.SeedLen <= 0 {
		o.SeedLen = 19
	}
	if o.SeedLen%2 == 0 {
		o.SeedLen++
	}
	if o.Stride <= 0 {
		o.Stride = o.SeedLen / 2
	}
	if o.MaxSeedHits <= 0 {
		o.MaxSeedHits = 32
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 4
	}
	if o.MinAlnLen <= 0 {
		o.MinAlnLen = o.SeedLen
	}
	if o.MinIdentity <= 0 {
		o.MinIdentity = 0.9
	}
	if o.CacheContigs == 0 {
		o.CacheContigs = 1024
	}
	return o
}

// SeedHit is one occurrence of a seed k-mer in a contig.
type SeedHit struct {
	ContigID int64
	Pos      int32 // contig position of the k-mer window
	Flipped  bool  // contig k-mer was reverse-complemented to canonical
}

type hitList struct {
	hits      []SeedHit
	saturated bool
}

// Alignment records a gapless read-to-contig alignment.
//
// If !Flipped: read[RStart:REnd] matches contig[CStart:CEnd].
// If Flipped: revcomp(read[RStart:REnd]) matches contig[CStart:CEnd].
type Alignment struct {
	ContigID     int64
	RStart, REnd int
	CStart, CEnd int
	Flipped      bool
	Matches      int
	Score        int
	ReadLen      int
	ContigLen    int
}

// Identity returns the fraction of aligned bases that match.
func (a Alignment) Identity() float64 {
	n := a.REnd - a.RStart
	if n <= 0 {
		return 0
	}
	return float64(a.Matches) / float64(n)
}

// FullLength reports whether the entire read aligned.
func (a Alignment) FullLength() bool { return a.RStart == 0 && a.REnd == a.ReadLen }

// Index is the distributed seed index plus contig sequence access.
type Index struct {
	opt     Options
	team    *xrt.Team
	seeds   *dht.Table[kmer.Kmer, hitList]
	seqs    map[int64]*contig.Contig
	numCtgs int64
	// caches[rank] is the rank-local contig cache (FIFO eviction).
	caches []*contigCache
}

// contigCache is a bounded per-rank set of contig IDs whose sequences
// have already been fetched; only its owning rank touches it.
type contigCache struct {
	cap   int
	have  map[int64]bool
	order []int64
}

func (c *contigCache) hit(id int64) bool {
	if c == nil || c.cap <= 0 {
		return false
	}
	if c.have[id] {
		return true
	}
	if len(c.order) >= c.cap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.have, evict)
	}
	c.have[id] = true
	c.order = append(c.order, id)
	return false
}

// BuildIndex constructs the distributed seed index over all contigs.
// Contig IDs must be the global IDs assigned by contig.Run.
func BuildIndex(team *xrt.Team, contigsByRank [][]*contig.Contig, opt Options) *Index {
	opt = opt.withDefaults()
	idx := &Index{opt: opt, team: team, seqs: make(map[int64]*contig.Contig)}
	if opt.CacheContigs > 0 {
		idx.caches = make([]*contigCache, team.Config().Ranks)
		for i := range idx.caches {
			idx.caches[i] = &contigCache{cap: opt.CacheContigs, have: make(map[int64]bool)}
		}
	}
	for _, cs := range contigsByRank {
		for _, c := range cs {
			idx.seqs[c.ID] = c
			idx.numCtgs++
		}
	}
	// every contig position contributes one seed, so total contig bases
	// bound the index size
	var totalBases int64
	for _, cs := range contigsByRank {
		for _, c := range cs {
			totalBases += int64(len(c.Seq))
		}
	}
	idx.seeds = dht.New[kmer.Kmer, hitList](team, dht.Options[kmer.Kmer]{
		Hash:          func(km kmer.Kmer) uint64 { return km.Hash(0x5eed1d) },
		ItemBytes:     16 + 14,
		ExpectedItems: totalBases,
		CacheSlots:    seedCacheSlots,
	}, nil)
	cap := opt.MaxSeedHits
	idx.seeds.SetApply(func(_, _ int, _ uint64, _ kmer.Kmer, in hitList, e dht.Entry[kmer.Kmer, hitList]) {
		cur, _ := e.Upsert()
		if cur.saturated {
			return
		}
		cur.hits = append(cur.hits, in.hits...)
		if len(cur.hits) > cap {
			cur.hits = cur.hits[:cap]
			cur.saturated = true
		}
	})
	team.BeginSpan("index-build")
	team.Run(func(r *xrt.Rank) {
		for _, c := range contigsByRank[r.ID] {
			id := c.ID
			n := 0
			kmer.ForEachCanonical(c.Seq, opt.SeedLen, func(pos int, canon kmer.Kmer, flipped bool) {
				idx.seeds.Put(r, canon, hitList{hits: []SeedHit{{
					ContigID: id, Pos: int32(pos), Flipped: flipped,
				}}})
				n++
			})
			r.ChargeItems(n)
		}
		idx.seeds.Flush(r)
		r.Barrier()

		// the index is read-only from here on: alignment serves seed
		// lookups lock-free through the per-rank software cache
		idx.seeds.Freeze(r)
	})
	team.EndSpan()
	idx.seeds.SetApply(nil)
	return idx
}

// Contig returns the indexed contig with the given global ID.
func (x *Index) Contig(id int64) *contig.Contig { return x.seqs[id] }

// NumContigs returns the number of indexed contigs.
func (x *Index) NumContigs() int64 { return x.numCtgs }

// fetchContig models fetching a contig's sequence window for extension:
// a remote lookup on a cache miss, rank-local time on a hit (merAligner's
// software caching of contig sequences).
func (x *Index) fetchContig(r *xrt.Rank, id int64, bytes int) *contig.Contig {
	c := x.seqs[id]
	if c == nil {
		return nil
	}
	if x.caches != nil && x.caches[r.ID].hit(id) {
		r.Charge(x.team.Cost().LocalOpNs)
		return c
	}
	owner := int(id % int64(x.team.Config().Ranks))
	r.ChargeLookup(owner, bytes)
	return c
}

type candidate struct {
	contigID int64
	flipped  bool
	diag     int32
	votes    int
}

// AlignRead aligns one read against the index, returning the surviving
// alignments sorted by descending score.
func (x *Index) AlignRead(r *xrt.Rank, read []byte) []Alignment {
	opt := x.opt
	k := opt.SeedLen
	if len(read) < k {
		return nil
	}
	rc := kmer.RevCompString(read)
	// vote for (contig, strand, diagonal) bins
	votes := make(map[candidate]int)
	for pos := 0; pos+k <= len(read); pos += opt.Stride {
		km, ok := kmer.Pack(read[pos:], k)
		if !ok {
			continue
		}
		canon, flippedR := km.Canonical(k)
		hl, ok := x.seeds.Get(r, canon)
		if !ok || hl.saturated {
			continue
		}
		for _, h := range hl.hits {
			flip := h.Flipped != flippedR
			var diag int32
			if !flip {
				diag = h.Pos - int32(pos)
			} else {
				// in the reverse-complemented read frame the seed starts at
				// len(read)-k-pos
				diag = h.Pos - int32(len(read)-k-pos)
			}
			key := candidate{contigID: h.ContigID, flipped: flip, diag: diag}
			votes[key]++
		}
	}
	if len(votes) == 0 {
		return nil
	}
	cands := make([]candidate, 0, len(votes))
	for c, v := range votes {
		c.votes = v
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		if cands[i].contigID != cands[j].contigID {
			return cands[i].contigID < cands[j].contigID
		}
		if cands[i].diag != cands[j].diag {
			return cands[i].diag < cands[j].diag
		}
		return !cands[i].flipped && cands[j].flipped
	})
	if len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}

	var out []Alignment
	seen := make(map[int64]bool) // best alignment per contig wins
	for _, c := range cands {
		if seen[c.contigID] {
			continue
		}
		ctg := x.fetchContig(r, c.contigID, len(read))
		if ctg == nil {
			continue
		}
		q := read
		if c.flipped {
			q = rc
		}
		a, ok := extendDiagonal(q, ctg.Seq, int(c.diag), opt)
		if !ok {
			continue
		}
		a.ContigID = c.contigID
		a.Flipped = c.flipped
		a.ReadLen = len(read)
		a.ContigLen = len(ctg.Seq)
		if c.flipped {
			// convert coordinates back to the original read frame
			a.RStart, a.REnd = len(read)-a.REnd, len(read)-a.RStart
		}
		seen[c.contigID] = true
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// extendDiagonal aligns q against ctg along a fixed diagonal (gapless),
// trimming to the best-scoring window and applying the length/identity
// thresholds. Coordinates are in q's frame.
func extendDiagonal(q, ctg []byte, diag int, opt Options) (Alignment, bool) {
	rlo := 0
	if diag < 0 {
		rlo = -diag
	}
	rhi := len(q)
	if m := len(ctg) - diag; m < rhi {
		rhi = m
	}
	if rhi-rlo < opt.MinAlnLen {
		return Alignment{}, false
	}
	// best-scoring subsegment (match=+1, mismatch=-1), Kadane-style
	best, bestLo, bestHi := -1, rlo, rlo
	cur, curLo := 0, rlo
	bestMatches, curMatches := 0, 0
	for i := rlo; i < rhi; i++ {
		if q[i] == ctg[i+diag] {
			cur++
			curMatches++
		} else {
			cur--
		}
		if cur > best {
			best, bestLo, bestHi = cur, curLo, i+1
			bestMatches = curMatches
		}
		if cur < 0 {
			cur, curLo, curMatches = 0, i+1, 0
		}
	}
	n := bestHi - bestLo
	if n < opt.MinAlnLen {
		return Alignment{}, false
	}
	a := Alignment{
		RStart: bestLo, REnd: bestHi,
		CStart: bestLo + diag, CEnd: bestHi + diag,
		Matches: bestMatches, Score: best,
	}
	if a.Identity() < opt.MinIdentity {
		return Alignment{}, false
	}
	return a, true
}

// AlignAll aligns every read of every rank; alnsByRank[r][i] holds the
// alignments of readsByRank[r][i].
func AlignAll(team *xrt.Team, idx *Index, readsByRank [][]fastq.Record) [][][]Alignment {
	out := make([][][]Alignment, team.Config().Ranks)
	team.BeginSpan("align")
	team.Run(func(r *xrt.Rank) {
		reads := readsByRank[r.ID]
		res := make([][]Alignment, len(reads))
		for i, rec := range reads {
			res[i] = idx.AlignRead(r, rec.Seq)
			r.ChargeItems(len(rec.Seq))
		}
		out[r.ID] = res
		r.Barrier()
	})
	var reads, alns int64
	for _, rr := range out {
		reads += int64(len(rr))
		for _, as := range rr {
			alns += int64(len(as))
		}
	}
	team.AddCounter("reads_aligned", reads)
	team.AddCounter("alignments", alns)
	team.EndSpan()
	return out
}

// Package aligner implements merAligner (paper §4.3 and the IPDPS'15
// companion paper): a fully parallel seed-and-extend read-to-contig
// aligner. The seed index — every k-mer of every contig — lives in a
// distributed hash table built with aggregating stores, and lookups during
// alignment are the same irregular-access pattern as the rest of the
// pipeline. Candidate (contig, strand, diagonal) bins are voted on by
// seed hits and the best candidates are extended along the diagonal.
//
// Memory: the hit lists of the index are carved from one arena per
// indexing rank (a seed that occurs once — almost all of them — costs no
// allocation of its own), and everything AlignRead needs between its
// lookups and the slice it returns lives in one scratch per rank, created
// by the rank's first read.
package aligner

import (
	"cmp"
	"slices"

	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/flat"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// Options configures the aligner.
type Options struct {
	// SeedLen is the seed k-mer length (defaults to 19; must be odd).
	SeedLen int
	// MaxSeedHits caps the hit list per seed; seeds hit more often come
	// from repeats and are skipped, as merAligner does.
	MaxSeedHits int
	// CacheContigs is the per-rank software cache capacity for fetched
	// contig sequences (merAligner caches these; repeated extensions
	// against the same contig then cost local time only). 0 uses the
	// default of 1024; negative disables caching.
	CacheContigs int
}

const (
	// maxCandidates bounds how many candidate diagonals of a read are
	// extended.
	maxCandidates = 4
	// minIdentity is the least fraction of matching bases an alignment is
	// reported with.
	minIdentity = 0.9
)

func (o Options) withDefaults() Options {
	if o.SeedLen <= 0 {
		o.SeedLen = 19
	}
	if o.SeedLen%2 == 0 {
		o.SeedLen++
	}
	if o.MaxSeedHits <= 0 {
		o.MaxSeedHits = 32
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
	// scratch[rank] is the rank's alignment working memory, nil until the
	// rank aligns its first read; only that rank touches it.
	scratch []*alignScratch
}

// alignScratch is what one rank reuses from read to read.
type alignScratch struct {
	votes flat.Map[candidate, int32] // keyed with votes = 0
	cands []candidate
	rc    []byte  // the read's reverse complement, when a flipped candidate is extended
	seen  []int64 // contigs already aligned to: at most maxCandidates
	cache contigCache
}

// contigCache is a bounded per-rank set of contig IDs whose sequences
// have already been fetched (FIFO eviction); only its owning rank touches
// it. The zero value with cap set is an empty cache: the set and the ring
// appear with the first fetch.
type contigCache struct {
	cap  int
	have map[int64]bool
	ring []int64 // insertion order: grows to cap, then ring[next] is the oldest
	next int
}

func (c *contigCache) hit(id int64) bool {
	if c.cap <= 0 {
		return false
	}
	if c.have[id] {
		return true
	}
	if c.have == nil {
		c.have = make(map[int64]bool)
	}
	c.have[id] = true
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, id)
		return false
	}
	delete(c.have, c.ring[c.next])
	c.ring[c.next] = id
	if c.next++; c.next == c.cap {
		c.next = 0
	}
	return false
}

// hash mixes a candidate's bin — contig, strand, diagonal — for the vote
// table.
func (c candidate) hash() uint64 {
	h := uint64(c.contigID)*0x9e3779b97f4a7c15 ^ uint64(uint32(c.diag))<<1
	if c.flipped {
		h ^= 1
	}
	return flat.Mix(h)
}

// BuildIndex constructs the distributed seed index over all contigs.
// Contig IDs must be the global IDs assigned by contig.Run.
func BuildIndex(team *xrt.Team, contigsByRank [][]*contig.Contig, opt Options) *Index {
	opt = opt.withDefaults()
	idx := &Index{opt: opt, team: team, seqs: make(map[int64]*contig.Contig),
		scratch: make([]*alignScratch, team.Config().Ranks)}
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
	}, nil)
	cap := opt.MaxSeedHits
	idx.seeds.SetApply(func(_, _ int, _ uint64, _ kmer.Kmer, in hitList, e dht.Entry[kmer.Kmer, hitList]) {
		cur, inserted := e.Upsert()
		if inserted {
			// adopt the sender's one-element slice; its capacity is one,
			// so a second hit appends into storage of the list's own
			cur.hits = in.hits
			return
		}
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
		// one arena for all of the rank's hits: a contig of n bases has at
		// most n−SeedLen+1 seed windows
		windows := 0
		for _, c := range contigsByRank[r.ID] {
			windows += max(len(c.Seq)-opt.SeedLen+1, 0)
		}
		arena := make([]SeedHit, 0, windows)
		for _, c := range contigsByRank[r.ID] {
			id := c.ID
			first := len(arena)
			kmer.ForEachCanonical(c.Seq, opt.SeedLen, func(pos int, canon kmer.Kmer, flipped bool) {
				n := len(arena)
				arena = append(arena, SeedHit{ContigID: id, Pos: int32(pos), Flipped: flipped})
				idx.seeds.Put(r, canon, hitList{hits: arena[n : n+1 : n+1]})
			})
			r.ChargeItems(len(arena) - first)
		}
		idx.seeds.Flush(r)
		r.Barrier()

		// the index is read-only from here on: alignment serves seed
		// lookups lock-free
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
// software caching of contig sequences). Both are counted in the rank's
// cache statistics.
func (x *Index) fetchContig(r *xrt.Rank, id int64, bytes int) *contig.Contig {
	c := x.seqs[id]
	if c == nil {
		return nil
	}
	if x.scratch[r.ID].cache.hit(id) {
		r.ChargeCacheHit()
		return c
	}
	owner := int(id % int64(x.team.Config().Ranks))
	r.ChargeLookup(owner, bytes)
	r.CountCacheMiss()
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
	s := x.scratch[r.ID]
	if s == nil {
		s = &alignScratch{cache: contigCache{cap: opt.CacheContigs}}
		x.scratch[r.ID] = s
	}
	// vote for (contig, strand, diagonal) bins; read seeds half a seed
	// apart, so that consecutive ones overlap
	s.votes.Clear()
	for pos := 0; pos+k <= len(read); pos += k / 2 {
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
			c := candidate{contigID: h.ContigID, flipped: h.Flipped != flippedR, diag: h.Pos - int32(pos)}
			if c.flipped {
				// in the reverse-complemented read frame the seed starts at
				// len(read)-k-pos
				c.diag = h.Pos - int32(len(read)-k-pos)
			}
			v, _ := s.votes.Upsert(c.hash(), c)
			*v++
		}
	}
	if s.votes.Len() == 0 {
		return nil
	}
	cands := s.cands[:0]
	s.votes.Range(func(_ uint64, c candidate, v *int32) bool {
		c.votes = int(*v)
		cands = append(cands, c)
		return true
	})
	s.cands = cands
	// a total order, so the result does not depend on the table's slot order
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.votes != b.votes:
			return b.votes - a.votes
		case a.contigID != b.contigID:
			return cmp.Compare(a.contigID, b.contigID)
		case a.diag != b.diag:
			return cmp.Compare(a.diag, b.diag)
		case a.flipped != b.flipped:
			if b.flipped {
				return -1
			}
			return 1
		}
		return 0
	})
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}

	var out []Alignment
	s.seen = s.seen[:0] // best alignment per contig wins
	s.rc = s.rc[:0]     // filled by the first flipped candidate
	for i, c := range cands {
		if slices.Contains(s.seen, c.contigID) {
			continue
		}
		ctg := x.fetchContig(r, c.contigID, len(read))
		if ctg == nil {
			continue
		}
		q := read
		if c.flipped {
			if len(s.rc) == 0 {
				s.rc = kmer.AppendRevComp(s.rc, read)
			}
			q = s.rc
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
		s.seen = append(s.seen, c.contigID)
		if out == nil {
			out = make([]Alignment, 0, len(cands)-i)
		}
		// descending score, ties in candidate order: a stable insertion
		j := len(out)
		out = append(out, a)
		for ; j > 0 && out[j-1].Score < a.Score; j-- {
			out[j] = out[j-1]
		}
		out[j] = a
	}
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
	if rhi-rlo < opt.SeedLen { // an alignment is at least one seed long
		return Alignment{}, false
	}
	// best-scoring subsegment (match=+1, mismatch=-1), Kadane-style
	best, bestLo, bestHi := -1, rlo, rlo
	cur, curLo := 0, rlo
	bestMatches, curMatches := 0, 0
	qw, cw := q[rlo:rhi], ctg[rlo+diag:rhi+diag] // the diagonal's two sides, equally long
	cw = cw[:len(qw)]
	for j := range qw {
		i := rlo + j
		if qw[j] == cw[j] {
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
	if n < opt.SeedLen {
		return Alignment{}, false
	}
	a := Alignment{
		RStart: bestLo, REnd: bestHi,
		CStart: bestLo + diag, CEnd: bestHi + diag,
		Matches: bestMatches, Score: best,
	}
	if a.Identity() < minIdentity {
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

// Package aligner implements merAligner (paper §4.3 and the IPDPS'15
// companion paper): a fully parallel seed-and-extend read-to-contig
// aligner. The seed index — every k-mer of every contig — lives in a
// distributed hash table built with aggregating stores. A read's seeds are
// all known before any is looked up, so a rank reads the seeds of a chunk
// of reads in one batch, one message per owner. Candidate (contig, strand,
// diagonal) bins are voted on by seed hits and the best candidates are
// extended along the diagonal.
//
// Memory: the hit lists of the index are carved from one arena per
// indexing rank (a seed that occurs once — almost all of them — costs no
// allocation of its own), and everything a chunk needs between its
// lookups and the slices it returns lives in one scratch per rank, created
// by the rank's first read.
package aligner

import (
	"cmp"
	"slices"
	"sort"

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
}

const (
	// maxSeedHits caps the hit list per seed; seeds hit more often come
	// from repeats and are skipped, as merAligner does.
	maxSeedHits = 32
	// cacheContigs is the per-rank software cache capacity for fetched
	// contig sequences (merAligner caches these; repeated extensions
	// against the same contig then cost local time only).
	cacheContigs = 1024
	// maxCandidates bounds how many candidate diagonals of a read are
	// extended.
	maxCandidates = 4
	// minIdentity is the least fraction of matching bases an alignment is
	// reported with.
	minIdentity = 0.9
	// alignChunk is how many reads AlignAll seeds at once: the seeds of a
	// chunk's reads are all known before any is looked up, so the chunk
	// asks each owner once for all of its seeds.
	alignChunk = 256
)

func (o Options) withDefaults() Options {
	if o.SeedLen <= 0 {
		o.SeedLen = 19
	}
	if o.SeedLen%2 == 0 {
		o.SeedLen++
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
	opt   Options
	team  *xrt.Team
	seeds *dht.Table[kmer.Kmer, hitList]
	seqs  map[int64]*contig.Contig
	// scratch[rank] is the rank's alignment working memory, nil until the
	// rank aligns its first read; only that rank touches it.
	scratch []*alignScratch
}

// alignScratch is what one rank reuses from read to read.
type alignScratch struct {
	// the chunk of reads being aligned: their canonical seeds read by read,
	// where each seed sits in its read, and what the index holds for it
	// (nothing when absent or saturated); ends[i] is one past read i's
	// last seed
	keys  []kmer.Kmer
	seeds []readSeed
	hits  [][]SeedHit
	ends  []int

	votes flat.Map[candidate, int32] // keyed with votes = 0
	cands []candidate
	rc    []byte  // the read's reverse complement, when a flipped candidate is extended
	seen  []int64 // contigs already aligned to: at most maxCandidates
	cache contigCache
}

// contigCache is a per-rank set of at most cacheContigs contig IDs whose
// sequences have already been fetched (FIFO eviction); only its owning
// rank touches it. The zero value is an empty cache: the set and the ring
// appear with the first fetch.
type contigCache struct {
	have map[int64]bool
	ring []int64 // insertion order: grows to cacheContigs, then ring[next] is the oldest
	next int
}

func (c *contigCache) hit(id int64) bool {
	if c.have[id] {
		return true
	}
	if c.have == nil {
		c.have = make(map[int64]bool)
	}
	c.have[id] = true
	if len(c.ring) < cacheContigs {
		c.ring = append(c.ring, id)
		return false
	}
	delete(c.have, c.ring[c.next])
	c.ring[c.next] = id
	if c.next++; c.next == cacheContigs {
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
// Contig IDs must be the global IDs assigned by contig.Run. The seed
// windows of all contigs, in (rank, list) order, are cut into p equal
// contiguous shares and rank r indexes share r, fetching the slices of
// contigs other ranks hold, so a long contig (a scaffold, from the second
// round on) does not make its holder a straggler. Every seed's hit list
// holds the same hits wherever the contigs lie, only in another order,
// which no alignment reads (DESIGN.md §7, "Index built in equal shares").
func BuildIndex(team *xrt.Team, contigsByRank [][]*contig.Contig, opt Options) *Index {
	opt = opt.withDefaults()
	k, p := opt.SeedLen, team.Config().Ranks
	idx := &Index{opt: opt, team: team, seqs: make(map[int64]*contig.Contig),
		scratch: make([]*alignScratch, p)}
	// every contig position contributes one seed, so total contig bases
	// bound the index size; runs[i].end is one past contig i's last window
	// in the global window order
	var totalBases int64
	var runs []seedRun
	windows := 0
	for home, cs := range contigsByRank {
		for _, c := range cs {
			idx.seqs[c.ID] = c
			totalBases += int64(len(c.Seq))
			windows += max(len(c.Seq)-k+1, 0)
			runs = append(runs, seedRun{c, home, windows})
		}
	}
	idx.seeds = dht.New[kmer.Kmer, hitList](team, dht.Options[kmer.Kmer]{
		Hash:          func(km kmer.Kmer) uint64 { return km.Hash(0x5eed1d) },
		ItemBytes:     16 + 14,
		ExpectedItems: totalBases,
	}, nil)
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
		if len(cur.hits) > maxSeedHits {
			cur.hits = cur.hits[:maxSeedHits]
			cur.saturated = true
		}
	})
	team.BeginSpan("index-build")
	team.Run(func(r *xrt.Rank) {
		// the share's windows, and one arena for all of their hits
		lo, hi := windows*r.ID/p, windows*(r.ID+1)/p
		arena := make([]SeedHit, 0, hi-lo)
		first := sort.Search(len(runs), func(i int) bool { return runs[i].end > lo })
		for _, run := range runs[first:] {
			start := run.end - max(len(run.c.Seq)-k+1, 0)
			if start >= hi {
				break
			}
			a, b := max(lo, start)-start, min(hi, run.end)-start
			if a >= b {
				continue
			}
			seq := run.c.Seq[a : b+k-1]
			if run.home != r.ID {
				r.ChargeLookup(run.home, len(seq))
			}
			id, n0 := run.c.ID, len(arena)
			kmer.ForEachCanonical(seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
				n := len(arena)
				arena = append(arena, SeedHit{ContigID: id, Pos: int32(a + pos), Flipped: flipped})
				idx.seeds.Put(r, canon, hitList{hits: arena[n : n+1 : n+1]})
			})
			r.ChargeItems(len(arena) - n0)
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

// seedRun is one contig in the global order of seed windows BuildIndex
// deals: the rank that holds it, and one past its last window.
type seedRun struct {
	c    *contig.Contig
	home int
	end  int
}

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

// readSeed is where a seed sits in its read, and whether the read's
// window was reverse-complemented to canonical.
type readSeed struct {
	pos     int32
	flipped bool
}

// scratchOf returns the rank's alignment scratch, creating it on the
// rank's first read.
func (x *Index) scratchOf(r *xrt.Rank) *alignScratch {
	s := x.scratch[r.ID]
	if s == nil {
		s = &alignScratch{}
		x.scratch[r.ID] = s
	}
	return s
}

// maxSeeds bounds the seeds addSeeds takes from a read of n bases: its
// windows k/2 apart.
func maxSeeds(n, k int) int {
	if n < k {
		return 0
	}
	return (n-k)/(k/2) + 1
}

// newChunk empties the chunk being seeded and makes room for n seeds, so
// that the buffers are sized once, not grown.
func (s *alignScratch) newChunk(n int) {
	s.keys = slices.Grow(s.keys[:0], n)
	s.seeds = slices.Grow(s.seeds[:0], n)
	s.ends = s.ends[:0]
}

// addSeeds appends read's seeds to the chunk being seeded: its windows
// half a seed apart, so that consecutive ones overlap.
func (s *alignScratch) addSeeds(read []byte, k int) {
	for pos := 0; pos+k <= len(read); pos += k / 2 {
		km, ok := kmer.Pack(read[pos:], k)
		if !ok {
			continue
		}
		canon, flipped := km.Canonical(k)
		s.keys = append(s.keys, canon)
		s.seeds = append(s.seeds, readSeed{int32(pos), flipped})
	}
	s.ends = append(s.ends, len(s.keys))
}

// lookupSeeds resolves every seed of the chunk in one batched read, which
// asks each owner once.
func (x *Index) lookupSeeds(r *xrt.Rank, s *alignScratch) {
	s.hits = slices.Grow(s.hits[:0], len(s.keys))[:len(s.keys)]
	x.seeds.GetBatch(r, s.keys, func(j int, hl hitList, ok bool) {
		s.hits[j] = nil
		if ok && !hl.saturated {
			s.hits[j] = hl.hits
		}
	})
}

// AlignRead aligns one read against the index, returning the surviving
// alignments sorted by descending score: a chunk of one read.
func (x *Index) AlignRead(r *xrt.Rank, read []byte) []Alignment {
	k := x.opt.SeedLen
	if len(read) < k {
		return nil
	}
	s := x.scratchOf(r)
	s.newChunk(maxSeeds(len(read), k))
	s.addSeeds(read, k)
	x.lookupSeeds(r, s)
	return x.alignSeeded(r, s, 0, read)
}

// alignSeeded aligns read i of the chunk lookupSeeds resolved last, read
// being its sequence.
func (x *Index) alignSeeded(r *xrt.Rank, s *alignScratch, i int, read []byte) []Alignment {
	opt := x.opt
	k := opt.SeedLen
	lo := 0
	if i > 0 {
		lo = s.ends[i-1]
	}
	// vote for (contig, strand, diagonal) bins
	s.votes.Clear()
	for j := lo; j < s.ends[i]; j++ {
		pos, flippedR := s.seeds[j].pos, s.seeds[j].flipped
		for _, h := range s.hits[j] {
			c := candidate{contigID: h.ContigID, flipped: h.Flipped != flippedR, diag: h.Pos - pos}
			if c.flipped {
				// in the reverse-complemented read frame the seed starts at
				// len(read)-k-pos
				c.diag = h.Pos - (int32(len(read)-k) - pos)
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
// alignments of readsByRank[r][i]. A rank aligns its reads in chunks of
// alignChunk: the chunk's seeds are resolved in one batch, then each read
// is voted on and extended in turn, so the contig cache sees the fetches
// in read order as AlignRead one read at a time would make them.
func AlignAll(team *xrt.Team, idx *Index, readsByRank [][]fastq.Record) [][][]Alignment {
	out := make([][][]Alignment, team.Config().Ranks)
	team.BeginSpan("align")
	team.Run(func(r *xrt.Rank) {
		reads := readsByRank[r.ID]
		res := make([][]Alignment, len(reads))
		s, k := idx.scratchOf(r), idx.opt.SeedLen
		for lo := 0; lo < len(reads); lo += alignChunk {
			chunk := reads[lo:min(lo+alignChunk, len(reads))]
			n := 0
			for _, rec := range chunk {
				n += maxSeeds(len(rec.Seq), k)
			}
			s.newChunk(n)
			for _, rec := range chunk {
				s.addSeeds(rec.Seq, k)
			}
			idx.lookupSeeds(r, s)
			for i, rec := range chunk {
				res[lo+i] = idx.alignSeeded(r, s, i, rec.Seq)
				r.ChargeItems(len(rec.Seq))
			}
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

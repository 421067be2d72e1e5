// Stage-output codecs: the serializable projection of each pipeline
// stage's result. Every record type has one walk (see codec.go) that
// states its wire layout, field by field in wire order; an Encode*Stage
// measures its payload under the walk, allocates it once and writes it, a
// Decode* reads through the same walk, validates exhaustively and
// rebuilds the in-memory form, including DHT rehydration for the k-mer
// table. Changing a format is one edit to one walk.
//
// What is and is not checkpointed, per stage:
//
//   - k-mer analysis: every table entry — k-mer, count and the two
//     extension codes — plus the scalar outcomes. Entries are sorted by
//     k-mer words so the payload is independent of shard iteration order.
//     The extension evidence the codes were called from is not in the
//     table, so it is not in the payload either.
//   - contig generation: the per-rank contig lists exactly as generated
//     (rank assignment and order preserved — downstream stages partition
//     work by these lists) plus the outcome counters. The de Bruijn
//     graph is NOT serialized: no downstream stage reads it, and it
//     dwarfs the contigs. A rehydrated Result has Graph == nil.
//   - scaffolding: surviving contigs (per-rank), scaffolds, links,
//     insert-size estimates, and one placement per read — where its top
//     alignment put it, all gap closing reads of the alignments. The seed
//     index is NOT serialized (gap closing reads the placements, never the
//     index); a rehydrated Result has Index == nil.
//   - gap closing: the final scaffold sequences and closure counters.
//
// Phase timing fields (xrt.PhaseStats) are never checkpointed: a resumed
// run's report covers the work it actually performed.
//
// A payload with per-rank lists carries its own partition count, so
// loading it onto a team needs no hint from the manifest: lists written
// at the team's rank count are kept exactly as written, any other
// partition is flattened, ordered by the globally deterministic
// content-hash IDs and dealt round-robin (xrt.Deal) — the owner-computes
// layout contig.ResultFromContigs produces, which depends only on the
// global contig set and the target rank count.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"hipmer/internal/contig"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

func walkKmer(c *cursor, km *kmer.Kmer) {
	i64(c, &km.W[0])
	i64(c, &km.W[1])
}

var (
	uvarintRec = recordOf(uvarint)
	i64Rec     = recordOf(i64[int64])
	f64Rec     = recordOf(f64)
	blobRec    = recordOf(blob)
)

// ---------------------------------------------------------------------
// k-mer analysis

// walkKmerHeader is everything before the entry list: the table-placement
// parameters — k, the minimizer length and the minimizer bins' weights —
// and the scalar outcomes.
func walkKmerHeader(c *cursor, k, minimizerLen *uint32, res *kanalysis.Result) {
	u32(c, k)
	u32(c, minimizerLen)
	list(c, &res.BinWeights, uvarintRec)
	i64(c, &res.HeavyHitters)
	i64(c, &res.Kept)
	i64(c, &res.TotalKmers)
	i64(c, &res.SuperKmers)
	i64(c, &res.SuperKmerBases)
	i64(c, &res.CommBytesSaved)
}

// kmerEntry is one table entry; the k-mer words come first on the wire,
// which is what kmerRecords sorts by.
type kmerEntry struct {
	km kmer.Kmer
	d  kanalysis.KmerData
}

func walkKmerEntry(c *cursor, e *kmerEntry) {
	walkKmer(c, &e.km)
	u32(c, &e.d.Count)
	u8(c, &e.d.ExtL)
	u8(c, &e.d.ExtR)
}

var kmerEntryRec = recordOf(walkKmerEntry)

// EncodeKmerStage serializes a k-mer analysis result. The table must be
// quiescent (frozen or between phases). k and minimizerLen record the
// table-placement parameters (kanalysis.EffectiveMinimizerLen), and with
// res.BinWeights they let rehydration rebuild a table whose owners, at the
// writing rank count, match the one that was checkpointed.
func EncodeKmerStage(res *kanalysis.Result, k, minimizerLen int) []byte {
	n, size := int(res.Table.Len()), kmerEntryRec.size
	ku, mu := uint32(k), uint32(minimizerLen)
	var entries int // where the first entry lies
	b := encode(func(c *cursor) {
		walkKmerHeader(c, &ku, &mu, res)
		c.count(n, size)
		entries = c.off
		if c.mode == measuring {
			c.next(n * size)
			return
		}
		res.Table.RangeAll(func(km kmer.Kmer, d kanalysis.KmerData) bool {
			e := kmerEntry{km, d}
			walkKmerEntry(c, &e)
			return true
		})
	})
	// Entries are fixed-size records: written in shard order, then sorted
	// where they lie, so the table is never copied into a slice of its own.
	sort.Sort(&kmerRecords{b[entries:], size, make([]byte, size)})
	return b
}

// kmerRecords orders the entry records of a k-mer payload by k-mer words.
type kmerRecords struct {
	b    []byte
	size int    // of one record
	tmp  []byte // one record of swap space
}

func (r *kmerRecords) at(i int) []byte { return r.b[i*r.size : (i+1)*r.size] }

func (r *kmerRecords) Len() int { return len(r.b) / r.size }

func (r *kmerRecords) Less(i, j int) bool {
	a, b := r.b[i*r.size:], r.b[j*r.size:]
	if a0, b0 := binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b); a0 != b0 {
		return a0 < b0
	}
	return binary.LittleEndian.Uint64(a[8:]) < binary.LittleEndian.Uint64(b[8:])
}

func (r *kmerRecords) Swap(i, j int) {
	a, b := r.at(i), r.at(j)
	copy(r.tmp, a)
	copy(a, b)
	copy(b, r.tmp)
}

// DecodeKmerStage rebuilds a k-mer analysis result, rehydrating the
// distributed table: entries are partitioned by owner, stored through
// each owner's rank-local fast path in one SPMD phase (pre-sized via
// ExpectedItems, so no incremental rehashing), and the table is returned
// frozen — exactly the state a fresh analysis hands downstream. The
// payload lists entries in global k-mer order and they are placed by the
// bin weights it carries, mapped onto the running team's ranks, so any
// rank count rebuilds the table a fresh analysis there would place. A
// payload without minimizer placement (length 0) or without the bins'
// weights — which no analysis has written since the per-item transport
// went — is refused. The payload carries no PeakEntries: it is Kept, as
// in a fresh analysis. The third parameter is ignored; it stays only
// because the benchmark harness passes it.
func DecodeKmerStage(team *xrt.Team, b []byte, _ int) (*kanalysis.Result, error) {
	c := cursor{mode: reading, b: b}
	res := &kanalysis.Result{}
	var k, m uint32
	walkKmerHeader(&c, &k, &m, res)
	res.PeakEntries = res.Kept
	n := c.count(0, kmerEntryRec.size)
	if c.err != nil {
		return nil, c.done("kmer-analysis")
	}
	if k < 1 || k > kmer.MaxK || m < 1 || m >= k {
		return nil, fmt.Errorf("kmer-analysis payload: bad placement params k=%d m=%d", k, m)
	}
	if w := len(res.BinWeights); w != kanalysis.Bins {
		return nil, fmt.Errorf("kmer-analysis payload: %d bin weights, want %d", w, kanalysis.Bins)
	}
	if slices.ContainsFunc(res.BinWeights, func(w int64) bool { return w < 0 || w > kanalysis.MaxBinWeight }) {
		return nil, fmt.Errorf("kmer-analysis payload: a bin weight out of range")
	}
	table := kanalysis.NewBinnedTable(team, int64(n), int(k), int(m), res.BinWeights)
	perOwner := make([][]kmerEntry, team.Config().Ranks)
	for i := 0; i < n; i++ {
		var e kmerEntry
		walkKmerEntry(&c, &e)
		o := table.Owner(e.km)
		perOwner[o] = append(perOwner[o], e)
	}
	if err := c.done("kmer-analysis"); err != nil {
		return nil, err
	}
	team.Run(func(r *xrt.Rank) {
		for _, e := range perOwner[r.ID] {
			table.Put(r, e.km, e.d) // owner == r.ID: rank-local fast path
		}
		table.Flush(r)
		r.Barrier()
		table.Freeze(r)
	})
	res.Table = table
	return res, nil
}

// ---------------------------------------------------------------------
// contig generation, graph cleaning (tip-clip / bubble-pop rounds of the
// iterative-k loop) and the pseudo-read carry (its merge stage): three
// payloads over one contig record

func walkContig(c *cursor, ct *contig.Contig) {
	i64(c, &ct.ID)
	blob(c, &ct.Seq)
	u8(c, &ct.TermL)
	u8(c, &ct.TermR)
	walkKmer(c, &ct.NbrL)
	walkKmer(c, &ct.NbrR)
	flag(c, &ct.HasNbrL)
	flag(c, &ct.HasNbrR)
	i64(c, &ct.SumCount)
	u32(c, &ct.PseudoWeight)
}

var (
	contigRec  = ptrTo(recordOf(walkContig))
	contigsRec = listOf(contigRec)
)

// walkContigResult is the outcome counters, then the per-rank lists.
func walkContigResult(c *cursor, r *contig.Result) {
	i64(c, &r.NumContigs)
	i64(c, &r.UUKmers)
	i64(c, &r.Claimed)
	i64(c, &r.Completed)
	i64(c, &r.Aborted)
	i64(c, &r.Rounds)
	list(c, &r.Contigs, contigsRec)
}

func walkCleanStats(c *cursor, s *contig.CleanStats) {
	i64(c, &s.TipsClipped)
	i64(c, &s.BubblesPopped)
	i64(c, &s.BasesRemoved)
	i64(c, &s.Survivors)
}

func walkMergeStats(c *cursor, s *contig.MergeStats) {
	i64(c, &s.Carried)
	i64(c, &s.Represented)
	i64(c, &s.PoppedOld)
	i64(c, &s.Rescued)
	i64(c, &s.Total)
}

// EncodeContigStage serializes a contig-generation result (minus the de
// Bruijn graph — see the package comment).
func EncodeContigStage(res *contig.Result) []byte {
	return encode(func(c *cursor) { walkContigResult(c, res) })
}

// EncodeCleaningStage serializes the output of a cleaning pass: the
// cumulative cleaning counters followed by the surviving contig result
// (same projection as the contig-generation codec).
func EncodeCleaningStage(res *contig.Result, stats contig.CleanStats) []byte {
	return encode(func(c *cursor) {
		walkCleanStats(c, &stats)
		walkContigResult(c, res)
	})
}

// readContigs reads a contig-generation payload — or, with cleaned, a
// cleaning payload and its counters — in the partition it was written
// under, which must be want ranks wide (want <= 0: any). Team-free; never
// panics on corrupt bytes (fuzzed).
func readContigs(b []byte, cleaned bool, want int) (*contig.Result, contig.CleanStats, error) {
	c := cursor{mode: reading, b: b}
	res, stats, what := &contig.Result{}, contig.CleanStats{}, "contig"
	if cleaned {
		what = "cleaning"
		walkCleanStats(&c, &stats)
	}
	walkContigResult(&c, res)
	err := c.done(what)
	if err == nil && want > 0 && len(res.Contigs) != want {
		err = fmt.Errorf("%s payload: %d rank partitions, team has %d", what, len(res.Contigs), want)
	}
	if err != nil {
		return nil, contig.CleanStats{}, err
	}
	return res, stats, nil
}

// contigsOnto decodes such a payload onto n ranks by the package comment's
// one load rule: kept as written at n partitions, dealt by ID otherwise.
func contigsOnto(b []byte, cleaned bool, n int) (*contig.Result, contig.CleanStats, error) {
	if n < 1 {
		return nil, contig.CleanStats{}, fmt.Errorf("contig payload: reshard to %d ranks", n)
	}
	res, stats, err := readContigs(b, cleaned, 0)
	if err == nil && len(res.Contigs) != n {
		res.Contigs = xrt.Deal(res.All(), n) // All sorts by ID
	}
	return res, stats, err
}

// DecodeContigStageReshard rebuilds a contig-generation result, written
// under any rank count, on n ranks.
func DecodeContigStageReshard(b []byte, n int) (*contig.Result, error) {
	res, _, err := contigsOnto(b, false, n)
	return res, err
}

// DecodeCleaningStageReshard rebuilds a cleaning pass's surviving contigs,
// written under any rank count, on n ranks, and its counters.
func DecodeCleaningStageReshard(b []byte, n int) (*contig.Result, contig.CleanStats, error) {
	return contigsOnto(b, true, n)
}

// DecodeContigStage is DecodeContigStageReshard refusing any payload not
// written at the team's rank count.
func DecodeContigStage(team *xrt.Team, b []byte) (*contig.Result, error) {
	res, _, err := readContigs(b, false, team.Config().Ranks)
	return res, err
}

// DecodeCleaningStage rebuilds a cleaning pass as written, refusing any
// payload without wantRanks partitions (wantRanks <= 0: any).
func DecodeCleaningStage(b []byte, wantRanks int) (*contig.Result, contig.CleanStats, error) {
	return readContigs(b, true, wantRanks)
}

// EncodeCarryStage serializes a pseudo-merge stage's output: the merge
// counters and the flat, globally renumbered carried-contig list that
// seeds the next k round.
func EncodeCarryStage(carried []*contig.Contig, st contig.MergeStats) []byte {
	return encode(func(c *cursor) {
		walkMergeStats(c, &st)
		list(c, &carried, contigRec)
	})
}

// DecodeCarryStage rebuilds a pseudo-merge stage's carried contigs and
// counters. Team-free; never panics on corrupt bytes (fuzzed).
func DecodeCarryStage(b []byte) ([]*contig.Contig, contig.MergeStats, error) {
	c := cursor{mode: reading, b: b}
	var st contig.MergeStats
	var carried []*contig.Contig
	walkMergeStats(&c, &st)
	list(&c, &carried, contigRec)
	if err := c.done("carry"); err != nil {
		return nil, contig.MergeStats{}, err
	}
	return carried, st, nil
}

// ---------------------------------------------------------------------
// scaffolding

func walkSContig(c *cursor, sc *scaffold.SContig) {
	i64(c, &sc.ID)
	blob(c, &sc.Seq)
	list(c, &sc.Members, i64Rec)
}

func walkMember(c *cursor, m *scaffold.Member) {
	i64(c, &m.ContigID)
	flag(c, &m.Flipped)
	i64(c, &m.GapBefore)
}

var memberRec = recordOf(walkMember)

func walkScaffold(c *cursor, s *scaffold.Scaffold) {
	i64(c, &s.ID)
	list(c, &s.Members, memberRec)
}

func walkLink(c *cursor, l *scaffold.Link) {
	i64(c, &l.A)
	i64(c, &l.B)
	u8(c, &l.EndA)
	u8(c, &l.EndB)
	f64(c, &l.Gap)
	f64(c, &l.GapSD)
	i64(c, &l.Splints)
	i64(c, &l.Spans)
}

func walkPlacement(c *cursor, p *scaffold.Placement) {
	i64(c, &p.ContigID)
	u32(c, &p.CStart)
	u32(c, &p.CEnd)
	u32(c, &p.ContigLen)
}

var (
	scontigsRec = listOf(ptrTo(recordOf(walkSContig)))
	scaffoldRec = ptrTo(recordOf(walkScaffold))
	linkRec     = recordOf(walkLink)
	// placementsRec is one library's placements: per rank, one per read.
	placementsRec = listOf(listOf(recordOf(walkPlacement)))
)

// walkScaffoldResult: contigs from the per-rank distribution (which also
// carries the map's full content), scaffolds, links, one (mean, sd)
// insert-size estimate per library under a single count, the bubble count,
// and every library's placements.
func walkScaffoldResult(c *cursor, r *scaffold.Result) {
	list(c, &r.ContigsByRank, scontigsRec)
	list(c, &r.Scaffolds, scaffoldRec)
	list(c, &r.Links, linkRec)
	n := c.count(len(r.InsertMean), 2*f64Rec.size)
	if c.mode == reading {
		r.InsertMean, r.InsertSD = make([]float64, n), make([]float64, n)
	}
	for i := range r.InsertMean {
		f64(c, &r.InsertMean[i])
		f64(c, &r.InsertSD[i])
	}
	i64(c, &r.Bubbles)
	list(c, &r.Placements, placementsRec)
}

// EncodeScaffoldStage serializes a scaffolding result (minus the seed
// index — see the package comment).
func EncodeScaffoldStage(res *scaffold.Result) []byte {
	return encode(func(c *cursor) { walkScaffoldResult(c, res) })
}

// DecodeScaffoldStageAny rebuilds a scaffolding result written under any
// rank count, returning that count alongside it; the contig map is the
// union of the per-rank lists, exactly as scaffolding itself leaves it.
// The per-rank structures (ContigsByRank, Placements) are left in the
// source partition: a caller on another rank count applies
// ReshardScaffoldContigs and remaps the placements against its own read
// partition. Team-free; never panics on corrupt bytes (fuzzed).
func DecodeScaffoldStageAny(b []byte) (*scaffold.Result, int, error) {
	c := cursor{mode: reading, b: b}
	res := &scaffold.Result{Contigs: make(map[int64]*scaffold.SContig)}
	walkScaffoldResult(&c, res)
	if err := c.done("scaffold"); err != nil {
		return nil, 0, err
	}
	for _, cs := range res.ContigsByRank {
		for _, sc := range cs {
			res.Contigs[sc.ID] = sc
		}
	}
	return res, len(res.ContigsByRank), nil
}

// DecodeScaffoldStage is DecodeScaffoldStageAny refusing any payload not
// written at the team's rank count.
func DecodeScaffoldStage(team *xrt.Team, b []byte) (*scaffold.Result, error) {
	res, ranks, err := DecodeScaffoldStageAny(b)
	if err == nil && ranks != team.Config().Ranks {
		return nil, fmt.Errorf("scaffold payload: %d rank partitions, team has %d",
			ranks, team.Config().Ranks)
	}
	return res, err
}

// ReshardScaffoldContigs redistributes a decoded scaffold result's
// surviving contigs onto dstRanks: ordered by ID and dealt round-robin,
// the layout the contig re-shard uses. Global structures (Contigs map,
// Scaffolds, Links, insert estimates) are untouched; Placements remain in
// the source read partition and are remapped separately against the
// resuming run's own read layout.
func ReshardScaffoldContigs(res *scaffold.Result, dstRanks int) error {
	if dstRanks < 1 {
		return fmt.Errorf("scaffold payload: reshard to %d ranks", dstRanks)
	}
	var flat []*scaffold.SContig
	for _, cs := range res.ContigsByRank {
		flat = append(flat, cs...)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].ID < flat[j].ID })
	res.ContigsByRank = xrt.Deal(flat, dstRanks)
	return nil
}

// ---------------------------------------------------------------------
// gap closing

func walkGapcloseResult(c *cursor, r *gapclose.Result) {
	i64(c, &r.Gaps)
	i64(c, &r.Closed)
	i64(c, &r.BySpanning)
	i64(c, &r.ByWalking)
	i64(c, &r.ByPatching)
	i64(c, &r.Verified)
	i64(c, &r.Checked)
	list(c, &r.ScaffoldSeqs, blobRec)
}

// EncodeGapcloseStage serializes a gap-closing result.
func EncodeGapcloseStage(res *gapclose.Result) []byte {
	return encode(func(c *cursor) { walkGapcloseResult(c, res) })
}

// DecodeGapcloseStage rebuilds a gap-closing result.
func DecodeGapcloseStage(b []byte) (*gapclose.Result, error) {
	c := cursor{mode: reading, b: b}
	res := &gapclose.Result{}
	walkGapcloseResult(&c, res)
	if err := c.done("gap-closing"); err != nil {
		return nil, err
	}
	return res, nil
}

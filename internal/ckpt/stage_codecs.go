// Stage-output codecs: the serializable projection of each pipeline
// stage's result. Encoders are deterministic (see codec.go); decoders
// validate exhaustively and rebuild the in-memory form, including DHT
// rehydration for the k-mer table.
//
// What is and is not checkpointed, per stage:
//
//   - k-mer analysis: the full count/extension table plus the scalar
//     outcomes. Entries are sorted by k-mer words so the payload is
//     independent of shard iteration order.
//   - contig generation: the per-rank contig lists exactly as generated
//     (rank assignment and order preserved — downstream stages partition
//     work by these lists) plus the outcome counters. The de Bruijn
//     graph is NOT serialized: no downstream stage reads it, and it
//     dwarfs the contigs. A rehydrated Result has Graph == nil.
//   - scaffolding: surviving contigs (per-rank), scaffolds, links,
//     insert-size estimates, and the per-read alignments gap closing
//     consumes. The seed index is NOT serialized (gap closing reads the
//     alignments, never the index); a rehydrated Result has Index == nil.
//   - gap closing: the final scaffold sequences and closure counters.
//
// Phase timing fields (xrt.PhaseStats) are never checkpointed: a resumed
// run's report covers the work it actually performed.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hipmer/internal/aligner"
	"hipmer/internal/contig"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

// ---------------------------------------------------------------------
// k-mer analysis

// EncodeKmerStage serializes a k-mer analysis result. The table must be
// quiescent (frozen or between phases). k and minimizerLen record the
// table-placement parameters (kanalysis.EffectiveMinimizerLen: 0 =
// classic hash placement) so rehydration rebuilds a table whose owners
// match the one that was checkpointed.
func EncodeKmerStage(res *kanalysis.Result, k, minimizerLen int) []byte {
	n := int(res.Table.Len())
	e := newEnc(kmerHeaderBytes + n*kmerEntryBytes)
	e.u32(uint32(k))
	e.u32(uint32(minimizerLen))
	e.u64(res.DistinctEstimate)
	e.i64(int64(res.HeavyHitters))
	e.i64(res.Kept)
	e.i64(res.PeakEntries)
	e.i64(res.TotalKmers)
	e.i64(res.SuperKmers)
	e.i64(res.SuperKmerBases)
	e.i64(res.CommBytesSaved)
	e.u64(uint64(n))
	res.Table.RangeAll(func(km kmer.Kmer, d kanalysis.KmerData) bool {
		e.u64(km.W[0])
		e.u64(km.W[1])
		e.u32(d.Count)
		for i := 0; i < 4; i++ {
			e.u32(d.LeftCnt[i])
		}
		for i := 0; i < 4; i++ {
			e.u32(d.RightCnt[i])
		}
		e.u8(d.ExtL)
		e.u8(d.ExtR)
		return true
	})
	// Entries are fixed-size records: written in shard order, then sorted
	// where they lie, so the table is never copied into a slice of its own.
	sort.Sort(kmerRecords(e.b[kmerHeaderBytes:]))
	return e.b
}

// kmerRecords orders the entry records of a k-mer payload by k-mer words.
type kmerRecords []byte

func (r kmerRecords) at(i int) []byte { return r[i*kmerEntryBytes : (i+1)*kmerEntryBytes] }

func (r kmerRecords) Len() int { return len(r) / kmerEntryBytes }

func (r kmerRecords) Less(i, j int) bool {
	a, b := r.at(i), r.at(j)
	if a0, b0 := binary.LittleEndian.Uint64(a), binary.LittleEndian.Uint64(b); a0 != b0 {
		return a0 < b0
	}
	return binary.LittleEndian.Uint64(a[8:]) < binary.LittleEndian.Uint64(b[8:])
}

func (r kmerRecords) Swap(i, j int) {
	var tmp [kmerEntryBytes]byte
	a, b := r.at(i), r.at(j)
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
}

const (
	// kmerHeaderBytes is the wire size of everything before the entries
	// (k, minimizer length, eight scalar outcomes, the entry count).
	kmerHeaderBytes = 4 + 4 + 8*8 + 8
	// kmerEntryBytes is the wire size of one table entry (two words,
	// count, 8 extension counters, two extension codes).
	kmerEntryBytes = 8 + 8 + 4 + 4*4 + 4*4 + 1 + 1
)

// DecodeKmerStage rebuilds a k-mer analysis result, rehydrating the
// distributed table: entries are partitioned by owner, stored through
// each owner's rank-local fast path in one SPMD phase (pre-sized via
// ExpectedItems, so no incremental rehashing), and the table is returned
// frozen — exactly the state a fresh analysis hands downstream.
func DecodeKmerStage(team *xrt.Team, b []byte, aggBufSize int) (*kanalysis.Result, error) {
	d := &dec{b: b}
	res := &kanalysis.Result{}
	k := int(d.u32())
	minimizerLen := int(d.u32())
	if d.err == nil && (k <= 0 || k > kmer.MaxK || minimizerLen < 0 || minimizerLen >= k && minimizerLen != 0) {
		return nil, fmt.Errorf("kmer-analysis payload: bad placement params k=%d m=%d", k, minimizerLen)
	}
	res.DistinctEstimate = d.u64()
	res.HeavyHitters = int(d.i64())
	res.Kept = d.i64()
	res.PeakEntries = d.i64()
	res.TotalKmers = d.i64()
	res.SuperKmers = d.i64()
	res.SuperKmerBases = d.i64()
	res.CommBytesSaved = d.i64()
	n := d.count(kmerEntryBytes)
	table := kanalysis.NewTable(team, int64(n), aggBufSize, 0, k, minimizerLen)
	p := team.Config().Ranks
	type entry struct {
		km kmer.Kmer
		d  kanalysis.KmerData
	}
	perOwner := make([][]entry, p)
	for i := 0; i < n; i++ {
		var en entry
		en.km.W[0] = d.u64()
		en.km.W[1] = d.u64()
		en.d.Count = d.u32()
		for j := 0; j < 4; j++ {
			en.d.LeftCnt[j] = d.u32()
		}
		for j := 0; j < 4; j++ {
			en.d.RightCnt[j] = d.u32()
		}
		en.d.ExtL = d.u8()
		en.d.ExtR = d.u8()
		if d.err != nil {
			break
		}
		o := table.Owner(en.km)
		perOwner[o] = append(perOwner[o], en)
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("kmer-analysis payload: %w", err)
	}
	team.Run(func(r *xrt.Rank) {
		for _, en := range perOwner[r.ID] {
			table.Put(r, en.km, en.d) // owner == r.ID: rank-local fast path
		}
		table.Flush(r)
		r.Barrier()
		table.Freeze(r)
	})
	res.Table = table
	return res, nil
}

// ---------------------------------------------------------------------
// contig generation

// contigRecBytes is the wire size of one contig record less its sequence
// bytes (ID, length-prefixed seq, two terminations, four neighbor words,
// two neighbor flags, sum count, pseudo weight).
const contigRecBytes = 8 + 8 + 2 + 32 + 2 + 8 + 4

// contigsBytes is the wire size of a count-prefixed list of contig records.
func contigsBytes(cs []*contig.Contig) int {
	n := 8 + len(cs)*contigRecBytes
	for _, c := range cs {
		n += len(c.Seq)
	}
	return n
}

// contigResultBytes is the wire size of encodeContigResult's output.
func contigResultBytes(res *contig.Result) int {
	n := 6*8 + 8
	for _, cs := range res.Contigs {
		n += contigsBytes(cs)
	}
	return n
}

func encodeContig(e *enc, c *contig.Contig) {
	e.i64(c.ID)
	e.bytes(c.Seq)
	e.u8(c.TermL)
	e.u8(c.TermR)
	e.u64(c.NbrL.W[0])
	e.u64(c.NbrL.W[1])
	e.u64(c.NbrR.W[0])
	e.u64(c.NbrR.W[1])
	e.bool(c.HasNbrL)
	e.bool(c.HasNbrR)
	e.u64(c.SumCount)
	e.u32(c.PseudoWeight)
}

func decodeContig(d *dec) *contig.Contig {
	c := &contig.Contig{}
	c.ID = d.i64()
	c.Seq = d.bytes()
	c.TermL = d.u8()
	c.TermR = d.u8()
	c.NbrL.W[0] = d.u64()
	c.NbrL.W[1] = d.u64()
	c.NbrR.W[0] = d.u64()
	c.NbrR.W[1] = d.u64()
	c.HasNbrL = d.bool()
	c.HasNbrR = d.bool()
	c.SumCount = d.u64()
	c.PseudoWeight = d.u32()
	return c
}

func encodeContigResult(e *enc, res *contig.Result) {
	e.i64(res.NumContigs)
	e.i64(res.UUKmers)
	e.i64(res.Claimed)
	e.i64(res.Completed)
	e.i64(res.Aborted)
	e.i64(res.Rounds)
	e.u64(uint64(len(res.Contigs)))
	for _, cs := range res.Contigs {
		e.u64(uint64(len(cs)))
		for _, c := range cs {
			encodeContig(e, c)
		}
	}
}

// decodeContigResult is the team-free core of DecodeContigStage:
// wantRanks <= 0 skips the rank-partition check (fuzzing decodes with
// no team at hand).
func decodeContigResult(d *dec, wantRanks int) (*contig.Result, error) {
	res := &contig.Result{}
	res.NumContigs = d.i64()
	res.UUKmers = d.i64()
	res.Claimed = d.i64()
	res.Completed = d.i64()
	res.Aborted = d.i64()
	res.Rounds = d.i64()
	ranks := d.count(8)
	if d.err == nil && wantRanks > 0 && ranks != wantRanks {
		return nil, fmt.Errorf("contig payload: %d rank partitions, team has %d",
			ranks, wantRanks)
	}
	res.Contigs = make([][]*contig.Contig, ranks)
	for r := 0; r < ranks; r++ {
		n := d.count(contigRecBytes)
		for i := 0; i < n; i++ {
			c := decodeContig(d)
			if d.err != nil {
				break
			}
			res.Contigs[r] = append(res.Contigs[r], c)
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("contig payload: %w", err)
	}
	return res, nil
}

// EncodeContigStage serializes a contig-generation result (minus the de
// Bruijn graph — see the package comment).
func EncodeContigStage(res *contig.Result) []byte {
	e := newEnc(contigResultBytes(res))
	encodeContigResult(e, res)
	return e.b
}

// DecodeContigStage rebuilds a contig-generation result for a team with
// the same rank count the checkpoint was written under, preserving the
// original per-rank lists exactly. Resuming on a different rank count
// goes through DecodeContigStageReshard instead.
func DecodeContigStage(team *xrt.Team, b []byte) (*contig.Result, error) {
	return decodeContigResult(&dec{b: b}, team.Config().Ranks)
}

// reshardContigResult redistributes a decoded contig result onto
// dstRanks: the global contig set is flattened, ordered by its globally
// deterministic content-hash-assigned IDs, and dealt round-robin — the
// same owner-computes layout contig.ResultFromContigs produces, so every
// downstream consumer sees a deterministic partition that depends only
// on the global contig set and the target rank count.
func reshardContigResult(res *contig.Result, dstRanks int) *contig.Result {
	return &contig.Result{
		NumContigs: res.NumContigs, UUKmers: res.UUKmers,
		Claimed: res.Claimed, Completed: res.Completed,
		Aborted: res.Aborted, Rounds: res.Rounds,
		Contigs: xrt.Deal(res.All(), dstRanks), // All sorts by ID
	}
}

// DecodeContigStageReshard rebuilds a contig-generation result written
// under any rank count and redistributes it onto dstRanks (elastic
// rescale). Team-free; never panics on corrupt bytes (fuzzed).
func DecodeContigStageReshard(b []byte, dstRanks int) (*contig.Result, error) {
	if dstRanks < 1 {
		return nil, fmt.Errorf("contig payload: reshard to %d ranks", dstRanks)
	}
	res, err := decodeContigResult(&dec{b: b}, 0)
	if err != nil {
		return nil, err
	}
	return reshardContigResult(res, dstRanks), nil
}

// ---------------------------------------------------------------------
// graph cleaning (tip-clip / bubble-pop rounds of the iterative-k loop)

// EncodeCleaningStage serializes the output of a cleaning pass: the
// cumulative cleaning counters followed by the surviving contig result
// (same projection as the contig-generation codec).
func EncodeCleaningStage(res *contig.Result, stats contig.CleanStats) []byte {
	e := newEnc(4*8 + contigResultBytes(res))
	e.i64(stats.TipsClipped)
	e.i64(stats.BubblesPopped)
	e.i64(stats.BasesRemoved)
	e.i64(stats.Survivors)
	encodeContigResult(e, res)
	return e.b
}

// DecodeCleaningStage rebuilds a cleaning pass's surviving contigs and
// counters. wantRanks <= 0 skips the rank-partition check; the sticky-
// error decoder rejects any malformed payload without panicking
// (fuzzed).
func DecodeCleaningStage(b []byte, wantRanks int) (*contig.Result, contig.CleanStats, error) {
	d := &dec{b: b}
	var stats contig.CleanStats
	stats.TipsClipped = d.i64()
	stats.BubblesPopped = d.i64()
	stats.BasesRemoved = d.i64()
	stats.Survivors = d.i64()
	res, err := decodeContigResult(d, wantRanks)
	if err != nil {
		return nil, contig.CleanStats{}, fmt.Errorf("cleaning payload: %w", err)
	}
	return res, stats, nil
}

// DecodeCleaningStageReshard rebuilds a cleaning pass written under any
// rank count and redistributes its surviving contigs onto dstRanks
// (elastic rescale). Team-free; never panics on corrupt bytes (fuzzed).
func DecodeCleaningStageReshard(b []byte, dstRanks int) (*contig.Result, contig.CleanStats, error) {
	if dstRanks < 1 {
		return nil, contig.CleanStats{}, fmt.Errorf("cleaning payload: reshard to %d ranks", dstRanks)
	}
	res, stats, err := DecodeCleaningStage(b, 0)
	if err != nil {
		return nil, contig.CleanStats{}, err
	}
	return reshardContigResult(res, dstRanks), stats, nil
}

// ---------------------------------------------------------------------
// pseudo-read carry (merge stage of the iterative-k loop)

// EncodeCarryStage serializes a pseudo-merge stage's output: the merge
// counters and the flat, globally renumbered carried-contig list that
// seeds the next k round.
func EncodeCarryStage(carried []*contig.Contig, st contig.MergeStats) []byte {
	e := newEnc(5*8 + contigsBytes(carried))
	e.i64(st.Carried)
	e.i64(st.Represented)
	e.i64(st.PoppedOld)
	e.i64(st.Rescued)
	e.i64(st.Total)
	e.u64(uint64(len(carried)))
	for _, c := range carried {
		encodeContig(e, c)
	}
	return e.b
}

// DecodeCarryStage rebuilds a pseudo-merge stage's carried contigs and
// counters. Team-free; never panics on corrupt bytes (fuzzed).
func DecodeCarryStage(b []byte) ([]*contig.Contig, contig.MergeStats, error) {
	d := &dec{b: b}
	var st contig.MergeStats
	st.Carried = d.i64()
	st.Represented = d.i64()
	st.PoppedOld = d.i64()
	st.Rescued = d.i64()
	st.Total = d.i64()
	n := d.count(contigRecBytes)
	var carried []*contig.Contig
	for i := 0; i < n; i++ {
		c := decodeContig(d)
		if d.err != nil {
			break
		}
		carried = append(carried, c)
	}
	if err := d.done(); err != nil {
		return nil, contig.MergeStats{}, fmt.Errorf("carry payload: %w", err)
	}
	return carried, st, nil
}

// ---------------------------------------------------------------------
// scaffolding

// Wire sizes of the scaffold payload's records, each less its variable
// part: a surviving contig (ID, length-prefixed seq, depth, two
// terminations, four neighbor words, two neighbor flags, member count,
// popped flag; plus the seq bytes and 8 per member), a scaffold (ID,
// member count; plus scaffoldMemberBytes per member), a link, one
// library's insert-size estimate, and an alignment.
const (
	scontigRecBytes     = 8 + 8 + 8 + 2 + 32 + 2 + 8 + 1
	scaffoldRecBytes    = 8 + 8
	scaffoldMemberBytes = 8 + 1 + 8
	linkRecBytes        = 8 + 8 + 2 + 8 + 8 + 8 + 8
	insertRecBytes      = 8 + 8
	alignmentRecBytes   = 8*9 + 1
)

// scaffoldStageBytes is the wire size of EncodeScaffoldStage's output.
func scaffoldStageBytes(res *scaffold.Result) int {
	n := 8
	for _, cs := range res.ContigsByRank {
		n += 8 + len(cs)*scontigRecBytes
		for _, sc := range cs {
			n += len(sc.Seq) + 8*len(sc.Members)
		}
	}
	n += 8 + len(res.Scaffolds)*scaffoldRecBytes
	for _, s := range res.Scaffolds {
		n += len(s.Members) * scaffoldMemberBytes
	}
	n += 8 + len(res.Links)*linkRecBytes
	n += 8 + len(res.InsertMean)*insertRecBytes
	n += 8 + 8 // the bubble count, the library count
	for _, lib := range res.Alignments {
		n += 8
		for _, rank := range lib {
			n += 8 + 8*len(rank)
			for _, alns := range rank {
				n += len(alns) * alignmentRecBytes
			}
		}
	}
	return n
}

// EncodeScaffoldStage serializes a scaffolding result (minus the seed
// index — see the package comment). Contigs are encoded from the
// per-rank distribution, which also carries the map's full content.
func EncodeScaffoldStage(res *scaffold.Result) []byte {
	e := newEnc(scaffoldStageBytes(res))
	e.u64(uint64(len(res.ContigsByRank)))
	for _, cs := range res.ContigsByRank {
		e.u64(uint64(len(cs)))
		for _, sc := range cs {
			e.i64(sc.ID)
			e.bytes(sc.Seq)
			e.f64(sc.Depth)
			e.u8(sc.TermL)
			e.u8(sc.TermR)
			e.u64(sc.NbrL.W[0])
			e.u64(sc.NbrL.W[1])
			e.u64(sc.NbrR.W[0])
			e.u64(sc.NbrR.W[1])
			e.bool(sc.HasNbrL)
			e.bool(sc.HasNbrR)
			e.u64(uint64(len(sc.Members)))
			for _, m := range sc.Members {
				e.i64(m)
			}
			e.bool(sc.PoppedOut)
		}
	}
	e.u64(uint64(len(res.Scaffolds)))
	for _, s := range res.Scaffolds {
		e.i64(int64(s.ID))
		e.u64(uint64(len(s.Members)))
		for _, m := range s.Members {
			e.i64(m.ContigID)
			e.bool(m.Flipped)
			e.i64(int64(m.GapBefore))
		}
	}
	e.u64(uint64(len(res.Links)))
	for _, l := range res.Links {
		e.i64(l.A)
		e.i64(l.B)
		e.u8(l.EndA)
		e.u8(l.EndB)
		e.f64(l.Gap)
		e.f64(l.GapSD)
		e.i64(int64(l.Splints))
		e.i64(int64(l.Spans))
	}
	e.u64(uint64(len(res.InsertMean)))
	for i := range res.InsertMean {
		e.f64(res.InsertMean[i])
		e.f64(res.InsertSD[i])
	}
	e.i64(int64(res.Bubbles))
	e.u64(uint64(len(res.Alignments)))
	for _, lib := range res.Alignments {
		e.u64(uint64(len(lib)))
		for _, rank := range lib {
			e.u64(uint64(len(rank)))
			for _, alns := range rank {
				e.u64(uint64(len(alns)))
				for _, a := range alns {
					e.i64(a.ContigID)
					e.i64(int64(a.RStart))
					e.i64(int64(a.REnd))
					e.i64(int64(a.CStart))
					e.i64(int64(a.CEnd))
					e.bool(a.Flipped)
					e.i64(int64(a.Matches))
					e.i64(int64(a.Score))
					e.i64(int64(a.ReadLen))
					e.i64(int64(a.ContigLen))
				}
			}
		}
	}
	return e.b
}

// DecodeScaffoldStage rebuilds a scaffolding result for a team with the
// same rank count the checkpoint was written under: the contig map is
// the union of the per-rank lists, exactly as scaffolding itself leaves
// it. Resuming on a different rank count goes through
// DecodeScaffoldStageAny plus a re-shard transform.
func DecodeScaffoldStage(team *xrt.Team, b []byte) (*scaffold.Result, error) {
	res, ranks, err := DecodeScaffoldStageAny(b)
	if err != nil {
		return nil, err
	}
	if ranks != team.Config().Ranks {
		return nil, fmt.Errorf("scaffold payload: %d rank partitions, team has %d",
			ranks, team.Config().Ranks)
	}
	return res, nil
}

// DecodeScaffoldStageAny rebuilds a scaffolding result written under any
// rank count, returning the source rank count alongside it. The per-rank
// structures (ContigsByRank, Alignments) are left in the source
// partition; callers rescaling onto a different rank count apply
// ReshardScaffoldContigs and remap the alignments against their own read
// partition. Team-free; never panics on corrupt bytes (fuzzed).
func DecodeScaffoldStageAny(b []byte) (*scaffold.Result, int, error) {
	d := &dec{b: b}
	res := &scaffold.Result{Contigs: make(map[int64]*scaffold.SContig)}
	ranks := d.count(8)
	res.ContigsByRank = make([][]*scaffold.SContig, ranks)
	for r := 0; r < ranks; r++ {
		n := d.count(scontigRecBytes)
		for i := 0; i < n; i++ {
			sc := &scaffold.SContig{}
			sc.ID = d.i64()
			sc.Seq = d.bytes()
			sc.Depth = d.f64()
			sc.TermL = d.u8()
			sc.TermR = d.u8()
			sc.NbrL.W[0] = d.u64()
			sc.NbrL.W[1] = d.u64()
			sc.NbrR.W[0] = d.u64()
			sc.NbrR.W[1] = d.u64()
			sc.HasNbrL = d.bool()
			sc.HasNbrR = d.bool()
			nm := d.count(8)
			for j := 0; j < nm; j++ {
				sc.Members = append(sc.Members, d.i64())
			}
			sc.PoppedOut = d.bool()
			if d.err != nil {
				break
			}
			res.ContigsByRank[r] = append(res.ContigsByRank[r], sc)
			res.Contigs[sc.ID] = sc
		}
	}
	ns := d.count(scaffoldRecBytes)
	for i := 0; i < ns; i++ {
		s := &scaffold.Scaffold{ID: int(d.i64())}
		nm := d.count(scaffoldMemberBytes)
		for j := 0; j < nm; j++ {
			s.Members = append(s.Members, scaffold.Member{
				ContigID:  d.i64(),
				Flipped:   d.bool(),
				GapBefore: int(d.i64()),
			})
		}
		if d.err != nil {
			break
		}
		res.Scaffolds = append(res.Scaffolds, s)
	}
	nl := d.count(linkRecBytes)
	for i := 0; i < nl; i++ {
		res.Links = append(res.Links, scaffold.Link{
			A: d.i64(), B: d.i64(),
			EndA: d.u8(), EndB: d.u8(),
			Gap: d.f64(), GapSD: d.f64(),
			Splints: int(d.i64()), Spans: int(d.i64()),
		})
	}
	ni := d.count(insertRecBytes)
	for i := 0; i < ni; i++ {
		res.InsertMean = append(res.InsertMean, d.f64())
		res.InsertSD = append(res.InsertSD, d.f64())
	}
	res.Bubbles = int(d.i64())
	nlib := d.count(8)
	for li := 0; li < nlib; li++ {
		nr := d.count(8)
		lib := make([][][]aligner.Alignment, nr)
		for r := 0; r < nr; r++ {
			nread := d.count(8)
			lib[r] = make([][]aligner.Alignment, nread)
			for ri := 0; ri < nread; ri++ {
				na := d.count(alignmentRecBytes)
				for ai := 0; ai < na; ai++ {
					lib[r][ri] = append(lib[r][ri], aligner.Alignment{
						ContigID: d.i64(),
						RStart:   int(d.i64()), REnd: int(d.i64()),
						CStart: int(d.i64()), CEnd: int(d.i64()),
						Flipped: d.bool(),
						Matches: int(d.i64()), Score: int(d.i64()),
						ReadLen: int(d.i64()), ContigLen: int(d.i64()),
					})
				}
			}
		}
		res.Alignments = append(res.Alignments, lib)
	}
	if err := d.done(); err != nil {
		return nil, 0, fmt.Errorf("scaffold payload: %w", err)
	}
	return res, ranks, nil
}

// ReshardScaffoldContigs redistributes a decoded scaffold result's
// surviving contigs onto dstRanks: the global contig set (IDs are
// globally deterministic content-hash ranks) is ordered by ID and dealt
// round-robin, the same owner-computes layout the contig re-shard uses.
// Global structures (Contigs map, Scaffolds, Links, insert estimates)
// are untouched; Alignments remain in the source read partition and are
// remapped separately against the resuming run's own read layout.
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

// EncodeGapcloseStage serializes a gap-closing result.
func EncodeGapcloseStage(res *gapclose.Result) []byte {
	size := 7*8 + 8 + 8*len(res.ScaffoldSeqs)
	for _, s := range res.ScaffoldSeqs {
		size += len(s)
	}
	e := newEnc(size)
	e.i64(int64(res.Gaps))
	e.i64(int64(res.Closed))
	e.i64(int64(res.BySpanning))
	e.i64(int64(res.ByWalking))
	e.i64(int64(res.ByPatching))
	e.i64(int64(res.Verified))
	e.i64(int64(res.Checked))
	e.u64(uint64(len(res.ScaffoldSeqs)))
	for _, s := range res.ScaffoldSeqs {
		e.bytes(s)
	}
	return e.b
}

// DecodeGapcloseStage rebuilds a gap-closing result.
func DecodeGapcloseStage(b []byte) (*gapclose.Result, error) {
	d := &dec{b: b}
	res := &gapclose.Result{}
	res.Gaps = int(d.i64())
	res.Closed = int(d.i64())
	res.BySpanning = int(d.i64())
	res.ByWalking = int(d.i64())
	res.ByPatching = int(d.i64())
	res.Verified = int(d.i64())
	res.Checked = int(d.i64())
	n := d.count(8)
	for i := 0; i < n; i++ {
		res.ScaffoldSeqs = append(res.ScaffoldSeqs, d.bytes())
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("gap-closing payload: %w", err)
	}
	return res, nil
}

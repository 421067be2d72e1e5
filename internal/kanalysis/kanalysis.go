// Package kanalysis implements stage 1 of the Meraculous/HipMer pipeline:
// parallel k-mer analysis (paper §2.1, §3.1). Reads are chopped into
// canonical k-mers. When heavy hitters are wanted, a first pass offers the
// windows of a fixed one-in-sampleRate sample of the reads — chosen by a
// hash of each read's content, so the same reads at any rank count — to
// Misra–Gries summaries, mergeable, so the pass is embarrassingly parallel;
// the k-mers over the cut-off scaled to the sample are the heavy hitters.
// Heavy hitters bypass the owner-computes path: they are accumulated
// locally and combined in a final global reduction, eliminating the
// receiver-side load imbalance repetitive genomes otherwise cause. A heavy
// k-mer's count is exact whichever set is heavy, so the sample moves
// charges, never tables.
//
// The partition pass reads every read once and segments it into
// minimizer-binned super-k-mers (minimum substring partitioning, after
// MSPKmerCounter): maximal runs of k-mer windows sharing one canonical
// minimizer, each a 2-bit packed record (~1.6 wire bytes per k-mer instead
// of a ~26-byte store item) bound for the owner of its minimizer's bin.
// Minimizer bins are very uneven, so bins go to ranks by their measured
// window counts, longest first (BinOwners): the pass weighs every bin
// before it ships anything, and the team reduces the per-bin counts into
// the map it ships by. The iterative-k pseudo-reads ride it as weighted
// records.
//
// A k-mer's owner is a function of its minimizer, so once the partition
// pass is over an owner's inbox holds every occurrence it will ever count.
// The count pass counts it exactly, one bin at a time, in a scratch table
// cleared between bins, and moves only the k-mers seen at least MinCount
// times into the distributed hash table, extension codes called. A bin
// fits in memory, so the single-occurrence (erroneous) k-mers stay out of
// the table — the paper's 85% memory saving — without the paper's Bloom
// filters, and the table is a function of the input alone at any rank
// count. The extension evidence the codes are called from lives only in
// the count pass: a table entry is the count and the two codes, 8 bytes.
//
// Each per-k-mer fact is computed once. Every scan rolls the forward and
// reverse-complement words of a window side by side (kmer.ForEachCanonical,
// kmer.SuperKmerCursor), so canonical form is a compare, not a reverse
// complement per window. The loops that look every window up — the count
// pass's scratch table, the heavy-hitter probe — key it by windowHash, one
// multiply; a window is seen many times and most distinct k-mers never
// clear MinCount, so the table hash, four multiplies, is taken once per
// k-mer that is kept, for the shard's stripe and slot, and once per window
// the Misra–Gries sketch is offered.
package kanalysis

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/flat"
	"hipmer/internal/kmer"
	"hipmer/internal/mg"
	"hipmer/internal/xrt"
)

// kmerItemBytes is the wire size of one per-item store record (packed
// k-mer + count/extension payload), the unit the super-k-mer transport's
// savings are measured against.
const kmerItemBytes = 16 + 10

// hashSeed seeds the canonical table hash: placement (when not by
// minimizer), stripe and slot selection and the heavy-hitter sketch all
// derive from km.Hash(hashSeed).
const hashSeed = 0xc0ffee

// windowHash keys a canonical k-mer in the tables probed once per window:
// one multiply of its two words folded together, whose high bits — the
// ones a flat.Map places by — depend on every bit of the fold. Neither
// table's slot order is ever observed, so this is all they need.
func windowHash(km kmer.Kmer) uint64 {
	return (km.W[0] ^ bits.RotateLeft64(km.W[1], 31)) * 0x9e3779b97f4a7c15
}

// sampleRate is s of the heavy-hitter sample: Misra–Gries sees the reads
// whose content hash is 0 mod s, and the cut-off it is held to is the
// full-stream one divided by s. At s = 8 no k-mer of twice the cut-off was
// missed on the wheat- and human-like curves EXPERIMENTS.md records.
const sampleRate = 8

const (
	// qualThreshold is the minimum phred score (not ASCII) for a base to
	// contribute extension evidence (Meraculous uses Q≥19).
	qualThreshold = 19
	// minExtCount is the evidence needed to call an extension base; two
	// or more qualifying bases make a fork.
	minExtCount = 2
)

// Options configures k-mer analysis.
type Options struct {
	// K is the k-mer length (the paper uses 41–51 for human/wheat).
	K int
	// MinCount discards k-mers observed fewer times (default 2): those are
	// treated as erroneous, per Meraculous. The count is exact, so 1 keeps
	// every k-mer of the input.
	MinCount int
	// Theta is the Misra–Gries counter budget (paper: 32,000).
	Theta int
	// HeavyHitters enables the §3.1 optimization. When false every k-mer
	// takes the owner-computes path (the "Default" series of Figure 6).
	HeavyHitters bool
	// HHMinCount is the count, in occurrences over all reads, above which a
	// k-mer is a heavy hitter. Defaults to max(64, n/Theta), n being the
	// sample's windows scaled by sampleRate. The sample is held to it
	// divided by sampleRate.
	HHMinCount int64
	// PseudoByRank, when non-nil, feeds the iterative-k outer loop's
	// carried contigs into the analysis as error-free pseudo-reads, one
	// list per rank (must match the team's rank count). Every k-mer
	// occurrence in a pseudo-read contributes its Weight to the count and
	// extension evidence, so a previous round's depth survives the
	// MinCount screen at the new k. Pseudo-reads travel like reads, as
	// weighted super-k-mer records; the table total stays a plain sum.
	PseudoByRank [][]PseudoRead
}

// PseudoRead is an error-free sequence fed back into k-mer analysis by
// the iterative-k outer loop: a contig surviving a previous round, with
// the depth-derived weight each of its k-mer occurrences counts for.
type PseudoRead struct {
	Seq    []byte
	Weight uint32 // 0 is treated as 1; Run refuses one above kmer.MaxSuperKmerWeight
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 31
	}
	if o.MinCount <= 0 {
		o.MinCount = 2
	}
	if o.Theta <= 0 {
		o.Theta = 32000
	}
	return o
}

// EffectiveMinimizerLen resolves the minimizer length stage 1 uses for
// table placement: minimizerLen clamped against k, where 0 — what Run
// passes — is kmer.DefaultMinimizerLen. Exported so checkpoint codecs and
// the pipeline derive placement-identical tables. disableSuperKmers, which
// Run never sets any more, gives 0 (classic hash placement); the parameter
// stays because the benchmark harness passes it.
func EffectiveMinimizerLen(k, minimizerLen int, disableSuperKmers bool) int {
	if disableSuperKmers {
		return 0
	}
	if k <= 0 {
		k = 31
	}
	return kmer.ClampMinimizerLen(k, minimizerLen)
}

// KmerData is the value stored per canonical k-mer: its exact count and
// its two extension codes, called from the count pass's evidence. Every
// reader of the table — traversal, bubble depths, closure verification,
// rehydration — needs these and nothing else, so an entry is 8 bytes.
type KmerData struct {
	Count uint32
	ExtL  byte
	ExtR  byte
}

// evidence is what the count pass gathers for one canonical k-mer: its
// count and the quality-filtered extension evidence for both directions.
// It lives only while the k-mer is counted — in an owner's scratch table
// or a heavy hitter's accumulators — and settle calls the codes from it.
type evidence struct {
	Count    uint32
	LeftCnt  [4]uint32
	RightCnt [4]uint32
}

func (d *evidence) merge(o evidence) {
	d.Count += o.Count
	for i := 0; i < 4; i++ {
		d.LeftCnt[i] += o.LeftCnt[i]
		d.RightCnt[i] += o.RightCnt[i]
	}
}

// called is the table entry of a complete count: the count, with both
// extension codes called from the evidence.
func (d evidence) called() KmerData {
	return KmerData{
		Count: d.Count,
		ExtL:  callExt(d.LeftCnt, minExtCount),
		ExtR:  callExt(d.RightCnt, minExtCount),
	}
}

// IsUU reports whether both extensions are unique bases, making the k-mer
// eligible for the contig de Bruijn graph.
func (d KmerData) IsUU() bool {
	return kmer.IsBaseExt(d.ExtL) && kmer.IsBaseExt(d.ExtR)
}

// Bins is the number of minimizer bins stage 1 places k-mers by: a k-mer
// with canonical minimizer v lies in bin kmer.MinimizerHash(v) % Bins. A
// power of two and independent of the rank count, so the per-bin window
// counts are a function of the input alone and a checkpoint's counts place
// a table at any rank count as a fresh analysis there would.
const Bins = 1 << binBits

const binBits = 11

// MaxBinWeight is the largest weight BinOwners takes: a weight and its bin
// share one word while the bins are sorted.
const MaxBinWeight = 1<<(64-binBits) - 1

// BinOwners maps every bin to a rank by longest processing time first:
// bins in order of weight, heaviest first and ties by bin, each to the rank
// with the least weight so far, ties by the lowest rank. No rank ends
// heavier than the mean plus the heaviest bin. There are at most Bins
// weights, each in [0, MaxBinWeight].
func BinOwners(weights []int64, p int) []int32 {
	// Sorted as one word per bin: the weight's complement above the bin.
	order := make([]uint64, len(weights))
	for i, w := range weights {
		if w < 0 || w > MaxBinWeight {
			panic("kanalysis: a bin weight out of range")
		}
		order[i] = uint64(MaxBinWeight-w)<<binBits | uint64(i)
	}
	slices.Sort(order)
	// A binary min-heap of the ranks by (load, rank): all-zero loads in
	// rank order are one already.
	type slot struct {
		load int64
		rank int32
	}
	less := func(a, b slot) bool { return a.load < b.load || a.load == b.load && a.rank < b.rank }
	heap := make([]slot, p)
	for i := range heap {
		heap[i].rank = int32(i)
	}
	owner := make([]int32, len(weights))
	for _, key := range order {
		b := key & (Bins - 1)
		owner[b] = heap[0].rank
		heap[0].load += weights[b]
		for i := 0; ; { // sift the root down
			c := 2*i + 1
			if c >= p {
				break
			}
			if c+1 < p && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	return owner
}

// NewTable constructs the stage's k-mer count table: the canonical hash
// seed, wire size, and placement every consumer of the table assumes.
// expectedItems is dht.Options.ExpectedItems, a sizing hint that allocates
// nothing (0 = no hint). cacheSlots is ignored: the table has no read
// cache, and the parameter stays only because the benchmark harness passes
// it. minimizerLen > 0 selects minimizer placement — the owner of a k-mer
// is the owner of its length-minimizerLen canonical minimizer, so point
// lookups land on the shard the super-k-mer transport filled — by the
// minimizer's hash modulo the rank count; 0 selects classic hash placement,
// a table of per-item stores (the aggregating-stores ablation fills one).
// NewBinnedTable places by measured bins.
func NewTable(team *xrt.Team, expectedItems int64, aggBufSize, cacheSlots, k, minimizerLen int) *dht.Table[kmer.Kmer, KmerData] {
	return newTable(team, expectedItems, aggBufSize, k, minimizerLen, nil)
}

// NewBinnedTable is the table of an analysis whose Result.BinWeights are
// weights: minimizer bins go to ranks by BinOwners(weights, ranks). Nil
// weights are NewTable's placement. Exported so
// checkpoint rehydration builds a table that places and charges
// identically to a freshly analyzed one at the same rank count.
func NewBinnedTable(team *xrt.Team, expectedItems int64, k, minimizerLen int, weights []int64) *dht.Table[kmer.Kmer, KmerData] {
	var owner []int32
	if weights != nil {
		owner = BinOwners(weights, team.Config().Ranks)
	}
	return newTable(team, expectedItems, 0, k, minimizerLen, owner)
}

// newTable places minimizer bins by owner, or by hash modulo the rank
// count when owner is nil.
func newTable(team *xrt.Team, expectedItems int64, aggBufSize, k, minimizerLen int, owner []int32) *dht.Table[kmer.Kmer, KmerData] {
	opt := dht.Options[kmer.Kmer]{
		Hash:          func(km kmer.Kmer) uint64 { return km.Hash(hashSeed) },
		ItemBytes:     kmerItemBytes,
		AggBufSize:    aggBufSize,
		ExpectedItems: expectedItems,
	}
	if owner != nil {
		opt.Place = func(h uint64) int { return int(owner[h%Bins]) }
	}
	if minimizerLen > 0 {
		opt.OwnerHash = func(km kmer.Kmer) uint64 {
			return kmer.MinimizerHash(km.Minimizer(k, minimizerLen))
		}
	}
	return dht.New[kmer.Kmer, KmerData](team, opt, nil)
}

// Result carries the outputs of k-mer analysis.
type Result struct {
	// Table maps canonical k-mer → KmerData for every k-mer with
	// count ≥ MinCount, with finalized extension codes. It is returned
	// frozen (read-only, lock-free); callers needing to
	// mutate it must Thaw first.
	Table *dht.Table[kmer.Kmer, KmerData]
	// HeavyHitters is the number of k-mers special-cased by the §3.1 path.
	HeavyHitters int
	// Kept is the number of distinct k-mers surviving the count filter.
	Kept int64
	// PeakEntries is Kept: the count pass moves only the k-mers that
	// clear MinCount into the table, so the table never holds more. It
	// stays a field only while the benchmark harness reads it (ROADMAP,
	// harness debt); the checkpoint does not carry it. A table admitting
	// every k-mer would peak at the kmer-analysis span's distinct_kmers
	// counter (§3.1: up to 85% more on human and wheat).
	PeakEntries int64
	// TotalKmers is the number of k-mer occurrences processed.
	TotalKmers int64
	// SuperKmers is the number of super-k-mer records the minimizer
	// transport shipped.
	SuperKmers int64
	// SuperKmerBases is the total run length in bases those records carry.
	SuperKmerBases int64
	// BinWeights is the number of windows the records carry per minimizer
	// bin (Bins of them), the weights the table's bins are placed by.
	BinWeights []int64
	// CommBytesSaved is the wire volume the super-k-mer transport avoided
	// versus shipping each of its windows as a per-item store record.
	CommBytesSaved int64
	// PseudoReads and PseudoKmers count the iterative-k pseudo-read input
	// (0 outside the multi-k outer loop).
	PseudoReads int64
	PseudoKmers int64
	// Phase virtual durations; SketchPhase, the heavy-hitter sample, is
	// zero without HeavyHitters.
	SketchPhase, PartitionPhase, CountPhase xrt.PhaseStats
}

// occurrence captures one sighting of a canonical k-mer with its oriented,
// quality-filtered extension evidence. ext codes 0..3 are bases; 4 = none.
type occurrence struct {
	km    kmer.Kmer
	left  uint8
	right uint8
}

const noExt = kmer.ExtAbsent

// extAt is the extension evidence position p of a read contributes: its
// base code when p is inside the read, ACGT, and at or above the quality
// threshold. Pseudo-reads carry no quality string (qual == nil): every
// base qualifies.
func extAt(seq, qual []byte, p int) uint8 {
	if p < 0 || p >= len(seq) || qual != nil && int(qual[p])-33 < qualThreshold {
		return noExt
	}
	if c, ok := kmer.BaseCode(seq[p]); ok {
		return uint8(c)
	}
	return noExt
}

// occurrenceAt builds the occurrence of the k-mer window at pos of seq,
// already canonicalized as (canon, flipped): the flanking bases are its
// extension evidence, and flipping swaps and complements the two ends.
func occurrenceAt(seq, qual []byte, pos, k int, canon kmer.Kmer, flipped bool) occurrence {
	left, right := extAt(seq, qual, pos-1), extAt(seq, qual, pos+k)
	if flipped {
		left, right = kmer.ComplementExt(right), kmer.ComplementExt(left)
	}
	return occurrence{canon, left, right}
}

// add accumulates w sightings of occurrence o.
func (d *evidence) add(o occurrence, w uint32) {
	d.Count += w
	if o.left != noExt {
		d.LeftCnt[o.left] += w
	}
	if o.right != noExt {
		d.RightCnt[o.right] += w
	}
}

// heavySet is the heavy-hitter set of one analysis: the k-mers in a fixed
// order, a small hash-keyed index from k-mer to position, and the set of
// their minimizers. Scanners probe the index by windowHash, and ranks
// accumulate heavy occurrences in a dense array parallel to keys. A heavy
// k-mer's windows lie in runs whose minimizer is that k-mer's, so the
// super-k-mer scanner asks for a run's minimizer first and looks at the
// windows of the few runs that pass.
type heavySet struct {
	keys       []kmer.Kmer
	index      flat.Map[kmer.Kmer, int32] // keyed by windowHash
	minimizers flat.Map[uint64, struct{}] // keyed by kmer.MinimizerHash
}

// newHeavySet indexes keys; m is the minimizer length of the super-k-mer
// transport.
func newHeavySet(keys []kmer.Kmer, k, m int) *heavySet {
	s := &heavySet{keys: keys}
	s.index.Grow((len(keys)*4 + 2) / 3)
	for i, km := range keys {
		at, _ := s.index.Upsert(windowHash(km), km)
		*at = int32(i)
		minv := km.Minimizer(k, m)
		s.minimizers.Upsert(kmer.MinimizerHash(minv), minv)
	}
	return s
}

// find returns km's position in keys, or -1.
func (s *heavySet) find(km kmer.Kmer) int {
	if at := s.index.Get(windowHash(km), km); at != nil {
		return int(*at)
	}
	return -1
}

// mayHold reports whether a run with minimizer minv, whose
// kmer.MinimizerHash is mh, can hold a heavy window.
func (s *heavySet) mayHold(mh, minv uint64) bool {
	return s.minimizers.Len() > 0 && s.minimizers.Get(mh, minv) != nil
}

// forEachSuperKmer segments one read into encoded super-k-mer records.
// Every maximal minimizer run becomes one record, with two exceptions.
// Heavy-hitter windows split their run: they are folded into acc instead of
// shipped — their occurrences take the local-accumulation path, and
// splitting keeps them out of the payloads the owner counts. And a run
// longer than a frame (kmer.MaxSuperKmerBases) travels as several records,
// consecutive ones sharing the k−1 bases between their windows. Windows
// are canonicalized and probed for heavy hitters only inside runs whose
// minimizer a heavy hitter has; every other run is encoded straight from
// the read.
//
// w is 0 for a read; a pseudo-read passes its weight, which its records
// carry and its heavy windows fold into acc at.
//
// emit receives the kmer.MinimizerHash of the run's minimizer, an encoded
// record, and its window count; the record aliases the scratch buffer
// *record and must be consumed (copied or buffered) before the next
// emission. Returns the total number of k-mer windows visited — identical
// to the kmer.ForEachCanonical count.
func forEachSuperKmer(rec fastq.Record, w, k, m int, hh *heavySet, acc []evidence,
	emit func(mh uint64, record []byte, nwin int), record *[]byte) int {
	seq, qual := rec.Seq, rec.Qual
	windows := 0
	kmer.ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
		windows += nwin
		mh := kmer.MinimizerHash(minv)
		// ship windows [from, to) of the read
		ship := func(from, to int) {
			for from < to {
				n := min(to-from, kmer.MaxSuperKmerBases-k+1)
				out, ok := kmer.AppendWeightedSuperKmer((*record)[:0], seq, qual, from, n+k-1, qualThreshold, w)
				if !ok {
					panic("kanalysis: minimizer run does not encode")
				}
				*record = out
				emit(mh, out, n)
				from += n
			}
		}
		from := start
		if hh.mayHold(mh, minv) {
			kmer.ForEachCanonical(seq[start:start+nwin+k-1], k, func(pos int, canon kmer.Kmer, flipped bool) {
				if i := hh.find(canon); i >= 0 {
					pos += start
					acc[i].add(occurrenceAt(seq, qual, pos, k, canon, flipped), uint32(max(w, 1)))
					ship(from, pos)
					from = pos + 1
				}
			})
		}
		ship(from, start+nwin)
	})
	return windows
}

// inbox is what one owner received over the super-k-mer transport during
// the partition pass. A delivery only files its payload — one exact-size
// copy per message (the flush buffer is reused), tagged with the sender;
// senders deliver concurrently (a blob flush runs on the sender's
// goroutine), hence the mutex. Once the pass is over, its owner is the only
// rank that ever reads it: the count pass decodes every record once.
type inbox struct {
	mu   sync.Mutex
	msgs []inboxMsg
}

type inboxMsg struct {
	src     int
	payload []byte
}

func (in *inbox) deliver(src int, payload []byte) {
	kept := append([]byte(nil), payload...)
	in.mu.Lock()
	in.msgs = append(in.msgs, inboxMsg{src, kept})
	in.mu.Unlock()
}

// tally is one rank's scratch for the count pass: the records of its inbox
// in count order with the end of each bin's among them, and one bin's
// counts with its distinct k-mers in the order they were first seen.
// Survivors move in that order, not in the counts' slot order, so nothing
// the pass does depends on the capacity a tally arrives with, and tallies
// are pooled across ranks and analyses.
type tally struct {
	order  []uint64
	ends   [Bins]int32
	counts flat.Map[kmer.Kmer, evidence] // keyed by windowHash
	seen   []hashedKmer
}

type hashedKmer struct {
	h  uint64 // windowHash(km)
	km kmer.Kmer
}

var tallies = sync.Pool{New: func() any { return new(tally) }}

// binShift is where sortRecords files a record's bin in its entry.
const binShift = 64 - binBits

// sortRecords lists the records of msgs in t.order in count order: by bin
// — a record's bin is that of its first window's minimizer, the rule the
// table places by — and within a bin in the order msgs holds them. Each
// entry is its record's message index above its offset there, offBits of
// them; t.ends[b] is the end of bin b's entries. Malformed payloads panic.
//
// It is a counting sort done in place, so the tally holds one entry per
// record: a first walk files each record under its bin (in the bits above
// binShift) and counts the bins; a second gives each entry, in walk order,
// the next free place of its bin, in the bits the bin was in; then every
// entry is swapped into its place, each swap settling one for good.
func (t *tally) sortRecords(msgs []inboxMsg, k, m int) (offBits uint) {
	longest := 0
	for _, msg := range msgs {
		longest = max(longest, len(msg.payload))
	}
	offBits = uint(bits.Len(uint(longest)))
	locBits := offBits + uint(bits.Len(uint(len(msgs))))
	if locBits > binShift {
		panic("kanalysis: an inbox of too many messages")
	}
	t.order, t.ends = t.order[:0], [Bins]int32{}
	var c kmer.SuperKmerCursor
	for i, msg := range msgs {
		c.Reset(msg.payload, k)
		for c.NextRecord() {
			bin := kmer.MinimizerHash(c.Minimizer(m)) % Bins
			t.ends[bin]++
			t.order = append(t.order, bin<<binShift|uint64(i)<<offBits|uint64(c.Offset()))
		}
		if err := c.Err(); err != nil {
			panic("kanalysis: corrupt super-k-mer payload: " + err.Error())
		}
	}
	if len(t.order) >= 1<<31 || locBits+uint(bits.Len(uint(len(t.order)))) > 64 {
		panic("kanalysis: an inbox of too many records")
	}
	at := int32(0)
	for b, n := range t.ends {
		t.ends[b], at = at, at+n
	}
	loc := uint64(1)<<locBits - 1
	for j, key := range t.order {
		b := key >> binShift
		t.order[j] = uint64(t.ends[b])<<locBits | key&loc
		t.ends[b]++
	}
	for j := range t.order {
		for d := int(t.order[j] >> locBits); d != j; d = int(t.order[j] >> locBits) {
			t.order[j], t.order[d] = t.order[d], t.order[j]
		}
		t.order[j] &= loc // in place: no later swap touches it
	}
	return offBits
}

// count is the owner's exact count of its inbox, one minimizer bin at a
// time. The records are taken in (bin, sender, send order) (sortRecords):
// a sender's messages arrive in its program order, so the order, and with
// it the slot order of the owner's shard, is a function of the input, not
// of the schedule. Each bin's windows are counted into t at their record's
// weight, with their extension evidence, in one loop per record that rolls
// a window, makes it canonical, probes and adds; then every k-mer of the
// bin is handed to keep with its complete evidence, and the ones seen at
// least minCount times move into the shard, each charged to r as the local
// store it is — the senders' store batches already charged this owner one
// local operation per window. Each k-mer is taken out of t as it moves, so
// emptying t for the next bin costs the bin's k-mers, not t's capacity,
// which is the heaviest bin's that t has ever counted. Returns the windows
// decoded and the distinct k-mers counted, and empties the inbox.
func (in *inbox) count(k, m, minCount int, t *tally, own dht.Owned[kmer.Kmer, KmerData], r *xrt.Rank, keep keeper) (windows, distinct int) {
	slices.SortStableFunc(in.msgs, func(a, b inboxMsg) int { return a.src - b.src })
	offBits := t.sortRecords(in.msgs, k, m)
	offMask := uint64(1)<<offBits - 1
	var c kmer.SuperKmerCursor
	lo := int32(0)
	for _, hi := range t.ends {
		if hi == lo {
			continue
		}
		for _, key := range t.order[lo:hi] {
			c.Reset(in.msgs[key>>offBits].payload[key&offMask:], k)
			c.NextRecord()
			weight := uint32(max(c.Weight(), 1))
			windows += c.Windows()
			for c.Next() {
				km, left, right := c.Canonical()
				h := windowHash(km)
				d, fresh := t.counts.Upsert(h, km)
				if fresh {
					t.seen = append(t.seen, hashedKmer{h, km})
				}
				d.add(occurrence{km, left, right}, weight)
			}
		}
		lo = hi
		distinct += len(t.seen)
		moved := 0
		for _, s := range t.seen {
			d, _ := t.counts.Take(s.h, s.km)
			moved += keep(own, s.km, d, minCount)
		}
		t.seen = t.seen[:0]
		r.ChargeStoreBatch(r.ID, moved, moved*kmerItemBytes)
	}
	in.msgs = nil
	return windows, distinct
}

// keeper is the step that ends a k-mer's count: it is handed the k-mer's
// complete evidence, once, and returns the entries it stored. The product
// passes settle; a test passes a wrapper that also reads the evidence,
// which the table no longer holds.
type keeper func(own dht.Owned[kmer.Kmer, KmerData], km kmer.Kmer, d evidence, minCount int) int

// settle stores the complete count d of km in the owner's shard,
// extension codes called, if it reaches minCount; it returns the entries
// stored. Only here is km's table hash taken: it picks the shard's stripe
// and slot.
func settle(own dht.Owned[kmer.Kmer, KmerData], km kmer.Kmer, d evidence, minCount int) int {
	if d.Count < uint32(minCount) {
		return 0
	}
	v, _ := own.Entry(km.Hash(hashSeed), km).Upsert()
	*v = d.called()
	return 1
}

// mix64 is the 64-bit finalizer of the heavy-hitter sample's content
// hash.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pseudoOf returns rank id's pseudo-reads (none outside the iterative-k
// outer loop).
func (o Options) pseudoOf(id int) []PseudoRead {
	if o.PseudoByRank == nil {
		return nil
	}
	return o.PseudoByRank[id]
}

// sampled reports whether rec is in the heavy-hitter sample: the reads
// whose content hash is 0 mod sampleRate. The hash covers the read's ID
// and bases, so the sample is a function of the input alone — the same
// reads at any rank count — and the two mates of a pair, or two reads of
// one sequence under IDs of their own, are independent draws.
func sampled(rec fastq.Record) bool {
	h := uint64(len(rec.ID))<<32 | uint64(len(rec.Seq))
	for _, b := range [2][]byte{rec.ID, rec.Seq} {
		for ; len(b) >= 8; b = b[8:] {
			h = mix64(h ^ binary.LittleEndian.Uint64(b))
		}
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h ^ binary.LittleEndian.Uint64(tail[:]))
	}
	return h%sampleRate == 0
}

// sketchPass is the heavy-hitter pass: every rank offers the canonical
// k-mers of its sampled reads to a Misra–Gries summary (no extension
// evidence is needed yet, so none is computed), charged one item per
// window, and the team reduces the summaries to the global one, which it
// returns; its N() is the sample's window count. Pseudo-reads are not
// offered: their weighted counts would distort the estimate (the partition
// pass folds their heavy windows in, at their weight). It fills
// res.SketchPhase.
//
// The reduction is a fold in rank order — Misra–Gries merges do not
// commute — and runs inside the phase: a rank that has scanned and charged
// its windows takes its turn in an ordered section, merges, and hands its
// cleared summary to the next rank that starts, while the other ranks are
// still scanning. A rank may start only once rank ID−W has left the
// section, W being twice the ranks that can physically scan at once, so an
// analysis holds at most W counter tables however many ranks it has. The
// lowest rank still inside is never held back (it needs ID−W+1 ≤ ID
// departures), so the window cannot deadlock; a rank killed by an injected
// crash before its turn poisons the section like a barrier. None of this
// exists on the virtual clock: the section charges nothing, as the serial
// fold after the phase that it replaces charged nothing.
func sketchPass(team *xrt.Team, readsByRank [][]fastq.Record, opt Options, res *Result) *mg.Summary[kmer.Kmer] {
	window := 2 * runtime.GOMAXPROCS(0)
	// Exactly the summaries of ranks that left the section and whose
	// successors have not started: never more than window of them.
	free := make(chan *mg.Summary[kmer.Kmer], window)
	merged := mg.NewSeeded[kmer.Kmer](opt.Theta, hashSeed)
	team.BeginSpan("sketch")
	res.SketchPhase = team.Run(func(r *xrt.Rank) {
		r.AwaitOrdered(r.ID - window + 1)
		var s *mg.Summary[kmer.Kmer]
		select {
		case s = <-free:
		default:
			s = mg.NewSeeded[kmer.Kmer](opt.Theta, hashSeed)
		}
		// Each read's membership is decided once, and the summary sized
		// for the sample's windows before any is offered.
		var sample []int
		windows := 0
		for i, rec := range readsByRank[r.ID] {
			if sampled(rec) {
				sample = append(sample, i)
				windows += max(len(rec.Seq)-opt.K+1, 0)
			}
		}
		s.Expect(windows)
		n := 0
		for _, i := range sample {
			kmer.ForEachCanonical(readsByRank[r.ID][i].Seq, opt.K, func(_ int, canon kmer.Kmer, _ bool) {
				s.OfferHashed(canon.Hash(hashSeed), canon)
				n++
			})
		}
		r.ChargeItems(n)
		r.Ordered(func() {
			merged.Merge(s)
			// Recycled before the section is left: the rank this departure
			// lets start must find it.
			s.Reset()
			free <- s
		})
	})
	team.EndSpan()
	return merged
}

// heavyKeys runs the sketch pass and returns the heavy hitters, heaviest
// first: the k-mers whose sample count reaches the cut-off divided by
// sampleRate, the cut-off being HHMinCount or max(64, n/θ) with n the
// sample's windows scaled by sampleRate. None without HeavyHitters.
func heavyKeys(team *xrt.Team, readsByRank [][]fastq.Record, opt Options, res *Result) []kmer.Kmer {
	if !opt.HeavyHitters {
		return nil
	}
	merged := sketchPass(team, readsByRank, opt, res)
	cut := opt.HHMinCount
	if cut <= 0 {
		cut = max(64, sampleRate*merged.N()/int64(opt.Theta))
	}
	var keys []kmer.Kmer
	for _, hit := range merged.HeavyHitters(max(cut/sampleRate, 1)) {
		keys = append(keys, hit.Item)
	}
	return keys
}

// Run executes k-mer analysis. readsByRank[i] is the slice of reads rank i
// obtained from the parallel FASTQ reader. The returned table's entries
// are complete and extension-finalized after Run returns.
func Run(team *xrt.Team, readsByRank [][]fastq.Record, opt Options) *Result {
	return run(team, readsByRank, opt, settle)
}

// run is Run with the step that ends each k-mer's count as a parameter.
func run(team *xrt.Team, readsByRank [][]fastq.Record, opt Options, keep keeper) *Result {
	opt = opt.withDefaults()
	p := team.Config().Ranks
	res := &Result{}
	minLen := EffectiveMinimizerLen(opt.K, 0, false)
	if opt.PseudoByRank != nil && len(opt.PseudoByRank) != p {
		panic("kanalysis: PseudoByRank needs one list per rank")
	}
	for _, prs := range opt.PseudoByRank {
		if slices.ContainsFunc(prs, func(pr PseudoRead) bool { return pr.Weight > kmer.MaxSuperKmerWeight }) {
			panic("kanalysis: a pseudo-read weight is above kmer.MaxSuperKmerWeight")
		}
	}

	hh := newHeavySet(heavyKeys(team, readsByRank, opt, res), opt.K, minLen)
	res.HeavyHitters = len(hh.keys)
	// heavyAcc[rank][i] accumulates the occurrences of hh.keys[i] that rank
	// scanned, filled as the partition pass segments its reads.
	heavyAcc := make([][]evidence, p)

	// Per-rank scan and super-k-mer transport statistics (summed
	// deterministically after the phase), what each owner received, and
	// what its count pass found there: windows and distinct k-mers.
	windows := make([]int64, p)
	pseudoKmers := make([]int64, p)
	skRecords := make([]int64, p)
	skBases := make([]int64, p)
	skSaved := make([]int64, p)
	inboxes := make([]inbox, p)
	ownerWins := make([]int64, p)
	distinct := make([]int64, p)

	// pass 2: partition. Every rank segments its reads into records and
	// weighs the minimizer bins by the windows they carry; the team sums
	// the weights and maps the bins to ranks, and only then builds the
	// table and ships each record to its bin's owner.
	//
	// The table gets no size hint: how many k-mers clear MinCount is known
	// only once they are counted. Stripes start small and double.
	team.BeginSpan("partition")
	segs := make([]segments, p)
	var weights []int64
	segment := team.Run(func(r *xrt.Rank) {
		acc := make([]evidence, len(hh.keys))
		s := &segs[r.ID]
		w := binWeights.Get().(*[Bins]int64)
		emit := func(mh uint64, record []byte, nwin int) {
			bin := mh % Bins
			w[bin] += int64(nwin)
			s.add(int(bin), nwin, record)
			skRecords[r.ID]++
			skBases[r.ID] += int64(nwin + opt.K - 1)
			skSaved[r.ID] += int64(nwin*kmerItemBytes - len(record))
		}
		var buf []byte // each record is encoded here, then copied to s
		n := 0
		for _, rec := range readsByRank[r.ID] {
			n += forEachSuperKmer(rec, 0, opt.K, minLen, hh, acc, emit, &buf)
		}
		reads := n
		for _, pr := range opt.pseudoOf(r.ID) {
			n += forEachSuperKmer(fastq.Record{Seq: pr.Seq}, max(int(pr.Weight), 1), opt.K, minLen, hh, acc, emit, &buf)
		}
		windows[r.ID], pseudoKmers[r.ID] = int64(n), int64(n-reads)
		r.ChargeItems(n)
		heavyAcc[r.ID] = acc
		// Every rank derives the map from the sum itself, so the team
		// needs no broadcast: sorting the bins and placing each through
		// the rank heap is charged as one item per bin. One rank's map is
		// trivial: no reduction and nothing to compute.
		sum := w[:]
		if p > 1 {
			sum = r.AllReduceSum(w[:])
			r.ChargeItems(Bins)
			*w = [Bins]int64{}
			binWeights.Put(w)
		}
		if r.ID == 0 {
			weights = sum
		}
	})
	res.BinWeights = weights
	owner := BinOwners(weights, p)
	table := newTable(team, 0, 0, opt.K, minLen, owner)
	// A delivery is filed, not decoded: the owner counts its inbox itself
	// once the phase is over.
	table.SetBlobApply(func(src, owner int, payload []byte, _ func(kmer.Kmer, KmerData)) {
		inboxes[owner].deliver(src, payload)
	})
	ship := team.Run(func(r *xrt.Rank) {
		segs[r.ID].forEach(func(bin, nwin int, record []byte) {
			table.PutBlob(r, int(owner[bin]), record, nwin)
		})
		segs[r.ID] = nil
		table.Flush(r)
	})
	res.PartitionPhase = sumPhases(segment, ship)
	team.EndSpan()
	res.Table = table

	// Each heavy hitter's owner, resolved once: the reduction in the count
	// pass hands every rank the list it folds.
	heavyByOwner := make([][]int32, p)
	for i, km := range hh.keys {
		o := table.Owner(km)
		heavyByOwner[o] = append(heavyByOwner[o], int32(i))
	}

	// pass 3: exact counting with extension evidence. Minimizer placement
	// put every non-heavy occurrence a rank owns in its inbox, so counting
	// is communication-free and the owner is known; heavy hitters were
	// accumulated rank-locally and are reduced. The span covers both.
	team.BeginSpan("count")
	res.CountPhase = team.Run(func(r *xrt.Rank) {
		t := tallies.Get().(*tally)
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			w, d := inboxes[r.ID].count(opt.K, minLen, opt.MinCount, t, own, r, keep)
			ownerWins[r.ID], distinct[r.ID] = int64(w), int64(d)
		})
		tallies.Put(t)

		// global reduction of the heavy-hitter accumulators: every rank
		// folds the partial counts for the k-mers it owns. The data volume
		// is O(#HH × p) — tiny next to the stream — charged as a tree
		// reduction plus the per-item fold, and each heavy hitter that
		// clears MinCount as its local store.
		if len(hh.keys) > 0 {
			r.Barrier()
			chargeHHReduction(r, len(hh.keys))
			moved := 0
			table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
				for _, i := range heavyByOwner[r.ID] {
					var agg evidence
					for _, part := range heavyAcc {
						agg.merge(part[i])
					}
					if agg.Count > 0 {
						distinct[r.ID]++
					}
					moved += keep(own, hh.keys[i], agg, opt.MinCount)
				}
			})
			r.ChargeStoreBatch(r.ID, moved, moved*kmerItemBytes)
		}
		kept := table.GlobalLen(r)
		if r.ID == 0 {
			res.Kept = kept
		}

		// analysis is complete: every downstream consumer (contig build
		// and traversal terminations, contig depths, gap-closing
		// verification) only reads, so publish the table frozen —
		// one lock-free lookup per read.
		table.Freeze(r)
	})
	team.EndSpan()
	table.SetBlobApply(nil)
	res.PeakEntries = res.Kept

	for _, prs := range opt.PseudoByRank {
		res.PseudoReads += int64(len(prs))
	}
	var distinctAll int64
	for i := 0; i < p; i++ {
		distinctAll += distinct[i]
		res.TotalKmers += windows[i]
		res.PseudoKmers += pseudoKmers[i]
		res.SuperKmers += skRecords[i]
		res.SuperKmerBases += skBases[i]
		res.CommBytesSaved += skSaved[i]
	}

	// Stage counters land on the enclosing "kmer-analysis" span (no-ops
	// when the stage is driven directly without a span).
	team.AddCounter("total_kmers", res.TotalKmers)
	team.AddCounter("heavy_hitters", int64(res.HeavyHitters))
	team.AddCounter("distinct_kmers", distinctAll)
	team.AddCounter("kept", res.Kept)
	team.AddCounter("superkmers", res.SuperKmers)
	team.AddCounter("superkmer_bases", res.SuperKmerBases)
	team.AddCounter("comm_bytes_saved", res.CommBytesSaved)
	team.AddCounter("owner_windows_max", slices.Max(ownerWins))
	if res.PseudoReads > 0 {
		team.AddCounter("pseudo_reads", res.PseudoReads)
		team.AddCounter("pseudo_kmers", res.PseudoKmers)
	}
	return res
}

// binWeights recycles the per-rank weight vectors of the segment phase,
// which a team of p ranks would otherwise allocate p of per analysis.
var binWeights = sync.Pool{New: func() any { return new([Bins]int64) }}

// segments is what one rank's records wait in between the two phases of
// the partition pass: each record after its bin and window count (two 16-bit
// words; nwin < kmer.MaxSuperKmerBases), back to back in chunks that grow
// from segChunkMin to segChunkMax bytes, none split across two. Chunks,
// unlike one growing slice, allocate little more than they hold.
type segments [][]byte

const (
	segChunkMin = 4 << 10
	segChunkMax = 64 << 10
)

func (s *segments) add(bin, nwin int, record []byte) {
	n := len(*s)
	if need := 4 + len(record); n == 0 || len((*s)[n-1])+need > cap((*s)[n-1]) {
		size := segChunkMin
		if n > 0 {
			size = min(2*cap((*s)[n-1]), segChunkMax)
		}
		*s = append(*s, make([]byte, 0, max(size, need)))
		n++
	}
	(*s)[n-1] = append((*s)[n-1], byte(bin), byte(bin>>8), byte(nwin), byte(nwin>>8))
	(*s)[n-1] = append((*s)[n-1], record...)
}

// forEach hands back every record in the order add was given them.
func (s segments) forEach(fn func(bin, nwin int, record []byte)) {
	for _, chunk := range s {
		for len(chunk) > 0 {
			n := 4 + kmer.SuperKmerRecordLen(chunk[4:])
			fn(int(chunk[0])|int(chunk[1])<<8, int(chunk[2])|int(chunk[3])<<8, chunk[4:n])
			chunk = chunk[n:]
		}
	}
}

// sumPhases is the cost of two consecutive phases.
func sumPhases(a, b xrt.PhaseStats) xrt.PhaseStats {
	a.Virtual += b.Virtual
	a.Wall += b.Wall
	a.Comm.Add(b.Comm)
	return a
}

// chargeHHReduction charges the cost of the heavy-hitter tree reduction:
// log2(p) exchange steps, each moving hh fixed-size records and folding
// them (a linear merge of flat arrays, much cheaper per item than a
// hash-table operation).
func chargeHHReduction(r *xrt.Rank, hh int) {
	p := r.N()
	steps := 0
	for n := 1; n < p; n *= 2 {
		steps++
	}
	per := xrt.OffNodeMsgNs + float64(hh)*(xrt.OffNodeByteNs*36+xrt.ItemNs/4)
	r.ChargeComm(float64(steps) * per)
}

// callExt decides the Meraculous extension code from evidence counts:
// exactly one base with enough support → that base; several → fork 'F';
// none → 'X'.
func callExt(cnt [4]uint32, minCount int) byte {
	qualified := -1
	nq := 0
	for b, c := range cnt {
		if int(c) >= minCount {
			nq++
			qualified = b
		}
	}
	switch nq {
	case 0:
		return kmer.ExtNone
	case 1:
		return kmer.CodeBase(uint64(qualified))
	default:
		return kmer.ExtFork
	}
}

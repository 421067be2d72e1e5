// Package kanalysis implements stage 1 of the Meraculous/HipMer pipeline:
// parallel k-mer analysis (paper §2.1, §3.1). Reads are chopped into
// canonical k-mers. When heavy hitters are wanted, a first pass offers the
// windows of a fixed one-in-sampleRate sample of the reads — chosen by a
// hash of each read's content, so the same reads at any rank count — to
// Misra–Gries summaries, mergeable, so the pass is embarrassingly parallel;
// the k-mers over the cut-off scaled to the sample are the heavy hitters.
// The Bloom pass then reads every read once: it segments each into
// super-k-mers and weighs the minimizer bins by the windows they carry; the
// team sums the weights, and each owner-side Bloom filter (one per lock
// stripe of each owner's shard) is sized for the windows its owner's bins
// carry before anything is shipped, so that only k-mers seen at least twice
// enter the distributed hash table (the 85% memory saving of the paper).
// The paper sizes its filters from a HyperLogLog first pass; here the
// window counts placement already needs bound every owner's distinct keys
// from above, exactly and per owner, at no extra scan. A count pass finishes
// every occurrence and its quality-filtered extension evidence. Heavy
// hitters bypass the owner-computes path: they are accumulated locally and
// combined in a final global reduction, eliminating the receiver-side load
// imbalance repetitive genomes otherwise cause. A heavy k-mer's count is
// exact whichever set is heavy, so the sample moves charges, never tables.
//
// The communication runs over minimizer-binned super-k-mers
// (minimum substring partitioning, after MSPKmerCounter): each read is
// segmented into maximal runs of k-mer windows sharing one canonical
// minimizer, each run travels to the owner of the minimizer's bin as one
// 2-bit packed record (~1.6 wire bytes per k-mer instead of a ~26-byte
// store item), and — because a k-mer's owner is a function of its
// minimizer — the Bloom pass's payload already contains every occurrence
// the owner will ever need. Minimizer bins are very uneven, so bins go to
// ranks by their measured window counts, longest first (BinOwners): the
// Bloom pass segments every read before it ships anything, and the team
// reduces the per-bin counts of those records into the map it ships by.
// The owner screens its payloads itself, counting every
// window the Bloom filter has seen on the spot and keeping only the
// records that hold a first sighting; the count pass replays just those
// locally instead of re-shipping the stream, so each window is counted
// once; the iterative-k pseudo-reads ride it as weighted records.
//
// Each per-k-mer fact is computed once. Every scan rolls the forward and
// reverse-complement words of a window side by side (kmer.ForEachCanonical,
// kmer.DecodeSuperKmersCanonical), so canonical form is a compare, not a
// reverse complement per window; the canonical hash is taken once where a
// k-mer is first needed and handed to whatever wants it next — the
// Misra–Gries sketch, the heavy-hitter probe, the Bloom filter, the table's
// slot index; and the count pass
// stores at the rank the payload was delivered to instead of re-deriving
// the owner from the k-mer's minimizer.
package kanalysis

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"

	"hipmer/internal/bloom"
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
// minimizer), stripe and slot selection, the Bloom probes and the
// heavy-hitter sketch all derive from km.Hash(hashSeed).
const hashSeed = 0xc0ffee

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
	// bloomFP is the Bloom filter false-positive design point.
	bloomFP = 0.05
)

// Options configures k-mer analysis.
type Options struct {
	// K is the k-mer length (the paper uses 41–51 for human/wheat).
	K int
	// MinCount discards k-mers observed fewer times (default 2): those are
	// treated as erroneous, per Meraculous.
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
	// DisableBloom admits every k-mer into the hash table on first
	// sighting, the behaviour the Bloom filters exist to avoid; used by
	// the memory ablation that reproduces the paper's "up to 85%" saving.
	DisableBloom bool
	// PseudoByRank, when non-nil, feeds the iterative-k outer loop's
	// carried contigs into the analysis as error-free pseudo-reads, one
	// list per rank (must match the team's rank count). Every k-mer
	// occurrence in a pseudo-read contributes its Weight to the count and
	// extension evidence, so a previous round's depth survives the
	// MinCount screen at the new k. Pseudo-reads travel like reads, as
	// weighted super-k-mer records that their owner admits whatever the
	// Bloom filter says; the table total stays a plain sum.
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
// the quality-filtered extension evidence for both directions, plus the
// finalized extension codes.
type KmerData struct {
	Count    uint32
	LeftCnt  [4]uint32
	RightCnt [4]uint32
	ExtL     byte
	ExtR     byte
}

func (d *KmerData) merge(o KmerData) {
	d.Count += o.Count
	for i := 0; i < 4; i++ {
		d.LeftCnt[i] += o.LeftCnt[i]
		d.RightCnt[i] += o.RightCnt[i]
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
	// PeakEntries is the hash-table size after the insertion pass and
	// before count filtering — the memory high-water mark the Bloom
	// screen reduces (§3.1: up to 85% on human and wheat).
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
	SketchPhase, BloomPhase, CountPhase xrt.PhaseStats
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
func (d *KmerData) add(o occurrence, w uint32) {
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
// their minimizers. Scanners probe the index with the canonical hash they
// already hold, and ranks accumulate heavy occurrences in a dense array
// parallel to keys. A heavy k-mer's windows lie in runs whose minimizer is
// that k-mer's, so the super-k-mer scanner asks for a run's minimizer first
// and looks at the windows of the few runs that pass.
type heavySet struct {
	keys       []kmer.Kmer
	index      flat.Map[kmer.Kmer, int32]
	minimizers flat.Map[uint64, struct{}] // keyed by kmer.MinimizerHash
}

// newHeavySet indexes keys; m is the minimizer length of the super-k-mer
// transport.
func newHeavySet(keys []kmer.Kmer, k, m int) *heavySet {
	s := &heavySet{keys: keys}
	s.index.Grow((len(keys)*4 + 2) / 3)
	for i, km := range keys {
		at, _ := s.index.Upsert(km.Hash(hashSeed), km)
		*at = int32(i)
		minv := km.Minimizer(k, m)
		s.minimizers.Upsert(kmer.MinimizerHash(minv), minv)
	}
	return s
}

// find returns km's position in keys, or -1; h is km.Hash(hashSeed).
func (s *heavySet) find(h uint64, km kmer.Kmer) int {
	if at := s.index.Get(h, km); at != nil {
		return int(*at)
	}
	return -1
}

// mayHold reports whether a run with minimizer minv can hold a heavy
// window.
func (s *heavySet) mayHold(minv uint64) bool {
	return s.minimizers.Len() > 0 && s.minimizers.Get(kmer.MinimizerHash(minv), minv) != nil
}

// forEachSuperKmer segments one read into encoded super-k-mer records.
// Every maximal minimizer run becomes one record, with two exceptions.
// Heavy-hitter windows split their run: they are folded into acc instead of
// shipped — their occurrences take the local-accumulation path, and
// splitting keeps them out of the payloads the owner replays. And a run
// longer than a frame (kmer.MaxSuperKmerBases) travels as several records,
// consecutive ones sharing the k−1 bases between their windows. Windows
// are canonicalized and probed for heavy hitters only inside runs whose
// minimizer a heavy hitter has; every other run is encoded straight from
// the read.
//
// w is 0 for a read; a pseudo-read passes its weight, which its records
// carry and its heavy windows fold into acc at.
//
// emit receives the run's minimizer, an encoded record, and its window
// count; the record aliases the scratch buffer *record and must be
// consumed (copied or buffered) before the next emission. Returns the
// total number of k-mer windows visited — identical to the
// kmer.ForEachCanonical count.
func forEachSuperKmer(rec fastq.Record, w, k, m int, hh *heavySet, acc []KmerData,
	emit func(minimizer uint64, record []byte, nwin int), record *[]byte) int {
	seq, qual := rec.Seq, rec.Qual
	windows := 0
	kmer.ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
		windows += nwin
		// ship windows [from, to) of the read
		ship := func(from, to int) {
			for from < to {
				n := min(to-from, kmer.MaxSuperKmerBases-k+1)
				out, ok := kmer.AppendWeightedSuperKmer((*record)[:0], seq, qual, from, n+k-1, qualThreshold, w)
				if !ok {
					panic("kanalysis: minimizer run does not encode")
				}
				*record = out
				emit(minv, out, n)
				from += n
			}
		}
		from := start
		if hh.mayHold(minv) {
			kmer.ForEachCanonical(seq[start:start+nwin+k-1], k, func(pos int, canon kmer.Kmer, flipped bool) {
				if i := hh.find(canon.Hash(hashSeed), canon); i >= 0 {
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
// the Bloom pass. A delivery only files its payload — one exact-size copy
// per message (the flush buffer is reused), tagged with the sender; senders
// deliver concurrently (a blob flush runs on the sender's goroutine), hence
// the mutex. Once the pass's barrier has closed the inbox, its owner is the
// only rank that ever decodes it, inside an owner section of the table: the
// screen decodes every record, and the replay decodes the records the
// screen kept.
type inbox struct {
	mu   sync.Mutex
	msgs []inboxMsg
	// first has one bit per window of the kept records in decode order, set
	// where the window was its k-mer's first sighting by the Bloom filter:
	// the windows replay still has to apply.
	first []uint64
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

// decode reports every window of payload in order.
func decode(payload []byte, k int, fn func(canon kmer.Kmer, left, right uint8)) int {
	n, err := kmer.DecodeSuperKmersCanonical(payload, k, fn)
	if err != nil {
		panic("kanalysis: corrupt super-k-mer payload: " + err.Error())
	}
	return n
}

// screen is the Bloom pass of an owner over its inbox, in sender order: a
// sender's messages arrive in its program order, so sorting by sender makes
// the order the filters see their keys in a function of the input, not of
// the schedule. Weighted (pseudo-read) records go first: each of their
// windows is offered to the filter of its stripe, then admitted and counted
// at the weight whatever the filter says, so a read window of the same
// k-mer is never a first sighting. Then the read records: a window whose
// k-mer the filter has seen is admitted and counted on the spot — count and
// both extension codes; a first sighting is only flagged.
//
// A weighted record, or a read record with no first sighting, has been
// counted in full and is dropped; one with a first sighting is moved to the
// front of its own message's buffer, so the kept records stay in (sender,
// send order) and nothing is allocated but the bitmap. A message left with
// no record is released. Returns the number of first sightings, of windows
// in the kept records, and of windows screened.
func (in *inbox) screen(k, owner int, own dht.Owned[kmer.Kmer, KmerData], seen func(owner, stripe int, h uint64) bool) (firsts, kept, windows int) {
	slices.SortStableFunc(in.msgs, func(a, b inboxMsg) int { return a.src - b.src })
	for _, m := range in.msgs {
		forEachRecord(m.payload, func(rec []byte) {
			if weight := uint32(kmer.SuperKmerWeight(rec)); weight > 0 {
				windows += decode(rec, k, func(canon kmer.Kmer, left, right uint8) {
					h := canon.Hash(hashSeed)
					e, stripe := own.Entry(h, canon)
					seen(owner, stripe, h)
					d, _ := e.Upsert()
					d.add(occurrence{canon, left, right}, weight)
				})
			}
		})
	}
	msgs := in.msgs[:0]
	for _, m := range in.msgs {
		size := 0 // bytes kept at the front of m.payload
		forEachRecord(m.payload, func(rec []byte) {
			if kmer.SuperKmerWeight(rec) > 0 {
				return
			}
			had, w := firsts, kept
			nwin := decode(rec, k, func(canon kmer.Kmer, left, right uint8) {
				h := canon.Hash(hashSeed)
				if e, stripe := own.Entry(h, canon); seen(owner, stripe, h) {
					d, _ := e.Upsert()
					d.add(occurrence{canon, left, right}, 1)
				} else {
					in.grow(w>>6 + 1)
					in.first[w>>6] |= 1 << (w & 63)
					firsts++
				}
				w++
			})
			windows += nwin
			if firsts > had {
				size += copy(m.payload[size:], rec)
				kept += nwin
				in.grow((kept + 63) >> 6)
			}
		})
		if size > 0 {
			msgs = append(msgs, inboxMsg{m.src, m.payload[:size]})
		}
	}
	clear(in.msgs[len(msgs):])
	in.msgs = msgs
	return firsts, kept, windows
}

// forEachRecord cuts payload into its super-k-mer records, in order; fn
// may overwrite the bytes of the records it has been handed.
func forEachRecord(payload []byte, fn func(rec []byte)) {
	for len(payload) > 0 {
		n := kmer.SuperKmerRecordLen(payload)
		if n == 0 {
			panic("kanalysis: corrupt super-k-mer payload: truncated record")
		}
		fn(payload[:n])
		payload = payload[n:]
	}
}

// grow extends the first-sighting bitmap to at least n words.
func (in *inbox) grow(n int) {
	if n > len(in.first) {
		in.first = append(in.first, make([]uint64, n-len(in.first))...)
	}
}

// replay is the count pass of an owner over the records its screen kept.
// Every window of them is decoded; only the flagged ones — the rest were
// counted on admission — are charged to r as the local store they are,
// hashed and looked up, and applied if their k-mer made it into the table
// since. Returns the number of windows decoded and empties the inbox.
func (in *inbox) replay(k int, own dht.Owned[kmer.Kmer, KmerData], r *xrt.Rank) int {
	w := 0
	for _, m := range in.msgs {
		decode(m.payload, k, func(canon kmer.Kmer, left, right uint8) {
			if in.first[w>>6]>>(w&63)&1 != 0 {
				r.ChargeStoreBatch(r.ID, 1, kmerItemBytes)
				e, _ := own.Entry(canon.Hash(hashSeed), canon)
				if d := e.Get(); d != nil {
					d.add(occurrence{canon, left, right}, 1)
				}
			}
			w++
		})
	}
	in.msgs, in.first = nil, nil
	return w
}

// mix64 derives the second Bloom probe from the canonical table hash, so
// screening costs zero extra key hashes (the double-hashing scheme only
// needs two decorrelated 64-bit values).
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
// offered: their weighted counts would distort the estimate (the Bloom pass
// folds their heavy windows in, at their weight). It fills res.SketchPhase.
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
		windows := 0
		for _, rec := range readsByRank[r.ID] {
			if sampled(rec) {
				windows += max(len(rec.Seq)-opt.K+1, 0)
			}
		}
		s.Expect(windows)
		n := 0
		for _, rec := range readsByRank[r.ID] {
			if sampled(rec) {
				kmer.ForEachCanonical(rec.Seq, opt.K, func(_ int, canon kmer.Kmer, _ bool) {
					s.OfferHashed(canon.Hash(hashSeed), canon)
					n++
				})
			}
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
	// scanned, filled as the Bloom pass segments its reads.
	heavyAcc := make([][]KmerData, p)

	// Per-rank scan and super-k-mer transport statistics (summed
	// deterministically after the phase) and what each owner received.
	windows := make([]int64, p)
	pseudoKmers := make([]int64, p)
	skRecords := make([]int64, p)
	skBases := make([]int64, p)
	skSaved := make([]int64, p)
	inboxes := make([]inbox, p)
	// What each owner's screen left for its count pass: first sightings and
	// the windows of the records holding them; and the windows it screened.
	firsts := make([]int, p)
	replayWins := make([]int, p)
	ownerWins := make([]int, p)

	// pass 2: Bloom screening — the second sighting of a k-mer promotes it
	// into the table; single-occurrence (erroneous) k-mers never enter.
	// Both Bloom probes derive from the canonical table hash (hash-once).
	// The filter is asked first and the shard touched only on "seen
	// before": most first sightings are the last, so most windows never
	// reach the slot array. The filter ends up in the same state as if
	// admitted keys skipped it — a key is admitted when all its bits are
	// set, and bits are never cleared, so adding it again sets nothing —
	// and so the admitted set is the same too.
	//
	// The pass is two phases: every rank segments its reads into records and
	// weighs the minimizer bins by the windows they carry; the team sums the
	// weights, maps the bins to ranks, sizes each owner's Bloom filters for
	// the windows its bins carry — the windows its screen will offer, an
	// upper bound on its distinct keys — and only then builds the table and
	// ships each record to its bin's owner.
	//
	// The table gets no size hint: the windows count every occurrence,
	// single-occurrence k-mers included, the very entries the Bloom screen
	// exists to keep out. Stripes start small and double.
	var table *dht.Table[kmer.Kmer, KmerData]
	// Per-(owner, stripe) Bloom filters, made with the table: a k-mer always
	// maps to the same stripe of its owner, so each filter sees the keys of
	// one stripe.
	var blooms []*bloom.Filter
	seen := func(owner, stripe int, h uint64) bool {
		return opt.DisableBloom || blooms[owner*table.Stripes()+stripe].Add(h, mix64(h))
	}
	team.BeginSpan("bloom-screen")
	segs := make([]segments, p)
	var weights []int64
	segment := team.Run(func(r *xrt.Rank) {
		acc := make([]KmerData, len(hh.keys))
		s := &segs[r.ID]
		w := binWeights.Get().(*[Bins]int64)
		emit := func(minv uint64, record []byte, nwin int) {
			bin := kmer.MinimizerHash(minv) % Bins
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
	table = newTable(team, 0, 0, opt.K, minLen, owner)
	// A delivery is filed, not decoded: the owner drains its inbox
	// itself once the barrier below has closed it.
	table.SetBlobApply(func(src, owner int, payload []byte, _ func(kmer.Kmer, KmerData)) {
		inboxes[owner].deliver(src, payload)
	})
	blooms = newBlooms(ownerWindows(weights, owner, p), table.Stripes())
	ship := team.Run(func(r *xrt.Rank) {
		segs[r.ID].forEach(func(bin, nwin int, record []byte) {
			table.PutBlob(r, int(owner[bin]), record, nwin)
		})
		segs[r.ID] = nil
		table.Flush(r)
		r.Barrier()

		// Owner computes: every window this rank will ever own is in its
		// inbox now (minimizer placement). The rank screens its windows
		// alone, in (sender, send order), under one round of its stripe
		// locks, and keeps only the records the count pass still has work
		// in. Uncharged, like the delivery-time decode it replaces (the
		// sender's store batch charged the owner per item).
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			firsts[r.ID], replayWins[r.ID], ownerWins[r.ID] = inboxes[r.ID].screen(opt.K, r.ID, own, seen)
		})
	})
	res.BloomPhase = sumPhases(segment, ship)
	team.EndSpan()
	res.Table = table

	// Each heavy hitter's owner, resolved once: the reduction at the end of
	// the count pass hands every rank the list it folds.
	heavyByOwner := make([][]int32, p)
	for i, km := range hh.keys {
		o := table.Owner(km)
		heavyByOwner[o] = append(heavyByOwner[o], int32(i))
	}

	// pass 3: exact counting with extension evidence. Heavy hitters were
	// accumulated rank-locally; everything else already went to its owner,
	// and the screen counted every window but the first sightings, so the
	// owner replays just the records holding those without any further
	// communication. The count pass, heavy-hitter reduction, and
	// finalization share one SPMD phase; the span covers them all, with
	// the reduction exposed through the hh_* counters below.
	team.BeginSpan("count")
	res.CountPhase = team.Run(func(r *xrt.Rank) {
		// Replay what the screen kept of the Bloom pass's inbox: minimizer
		// placement guarantees it held exactly the non-heavy occurrences
		// this rank owns, so counting is communication-free and the owner
		// is known; the decode is charged per window like a scan, and each
		// first sighting as the local store it is.
		var wins int
		table.OwnShard(r, func(own dht.Owned[kmer.Kmer, KmerData]) {
			wins = inboxes[r.ID].replay(opt.K, own, r)
		})
		r.ChargeItems(wins)
		r.Barrier()

		// global reduction of the heavy-hitter accumulators: every rank
		// folds the partial counts for the k-mers it owns. The data volume
		// is O(#HH × p) — tiny next to the stream — charged as a tree
		// reduction plus the per-item fold.
		if len(hh.keys) > 0 {
			chargeHHReduction(r, len(hh.keys))
			for _, i := range heavyByOwner[r.ID] {
				var agg KmerData
				for _, part := range heavyAcc {
					agg.merge(part[i])
				}
				table.Mutate(r, hh.keys[i], func(v KmerData, _ bool) (KmerData, bool) {
					v.merge(agg)
					return v, true
				})
			}
		}
		r.Barrier()
		peak := table.GlobalLen(r)
		if r.ID == 0 {
			res.PeakEntries = peak
		}

		// finalize: drop low-count k-mers, call extension codes
		table.LocalFilter(r, func(k kmer.Kmer, v KmerData) (KmerData, bool) {
			if v.Count < uint32(opt.MinCount) {
				return v, false
			}
			v.ExtL = callExt(v.LeftCnt, minExtCount)
			v.ExtR = callExt(v.RightCnt, minExtCount)
			return v, true
		})
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

	for _, prs := range opt.PseudoByRank {
		res.PseudoReads += int64(len(prs))
	}
	var nFirst, nReplay int64
	for i := 0; i < p; i++ {
		res.TotalKmers += windows[i]
		res.PseudoKmers += pseudoKmers[i]
		res.SuperKmers += skRecords[i]
		res.SuperKmerBases += skBases[i]
		res.CommBytesSaved += skSaved[i]
		nFirst += int64(firsts[i])
		nReplay += int64(replayWins[i])
	}

	// Stage counters land on the enclosing "kmer-analysis" span (no-ops
	// when the stage is driven directly without a span).
	team.AddCounter("total_kmers", res.TotalKmers)
	team.AddCounter("heavy_hitters", int64(res.HeavyHitters))
	team.AddCounter("peak_entries", res.PeakEntries)
	team.AddCounter("kept", res.Kept)
	team.AddCounter("superkmers", res.SuperKmers)
	team.AddCounter("superkmer_bases", res.SuperKmerBases)
	team.AddCounter("comm_bytes_saved", res.CommBytesSaved)
	team.AddCounter("owner_windows_max", int64(slices.Max(ownerWins)))
	if res.PseudoReads > 0 {
		team.AddCounter("pseudo_reads", res.PseudoReads)
		team.AddCounter("pseudo_kmers", res.PseudoKmers)
	}
	team.AddCounter("first_sightings", nFirst)
	team.AddCounter("replay_windows", nReplay)
	return res
}

// binWeights recycles the per-rank weight vectors of the segment phase,
// which a team of p ranks would otherwise allocate p of per analysis.
var binWeights = sync.Pool{New: func() any { return new([Bins]int64) }}

// segments is what one rank's records wait in between the two phases of
// the Bloom pass: each record after its bin and window count (two 16-bit
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

// ownerWindows is the number of windows each of p owners screens: the
// weights of the bins it owns.
func ownerWindows(weights []int64, owner []int32, p int) []int64 {
	wins := make([]int64, p)
	for b, w := range weights {
		wins[owner[b]] += w
	}
	return wins
}

// newBlooms sizes one Bloom filter per (owner, stripe), owner o's for its
// share of wins[o] windows: a stripe is a hash of the k-mer, so each of an
// owner's stripes sees about an equal part of its keys, and no more
// distinct keys than windows.
func newBlooms(wins []int64, stripes int) []*bloom.Filter {
	blooms := make([]*bloom.Filter, len(wins)*stripes)
	for i := range blooms {
		per := uint64(wins[i/stripes])/uint64(stripes) + 64
		blooms[i] = bloom.New(per*12/10, bloomFP)
	}
	return blooms
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

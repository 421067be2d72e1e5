// Package dht implements the distributed hash tables at the heart of
// HipMer (paper §7: "distributed hash tables lie in the heart of HipMer
// and the main operations on them are irregular lookups"). A Table is
// partitioned into one shard per rank; the owner of a key is determined by
// a placement function over the key's hash — the uniform h mod p layout by
// default, or an oracle layout (see Oracle) for the communication-avoiding
// traversal of §3.2.
//
// Three communication patterns are modelled:
//
//   - Irregular lookups (Get/Mutate): one message per operation,
//     classified local / on-node / off-node by the xrt layer. These are the
//     events whose locality Table 2 of the paper reports, and the shape of
//     every read whose key depends on an earlier answer.
//   - Owner-side runs (RefAt): a chain of dependent reads whose keys mostly
//     share an owner — a graph walk over a table placed by minimizer —
//     continues at the owner while the next key is found in its shard, and
//     the run is one exchange carrying its n reads. A key found in a shard
//     is owned there, so the run computes its next owner only once, where
//     it ends.
//   - Aggregating stores (Put): updates are buffered per destination rank
//     and flushed as one message per full buffer, the optimization HipMer
//     uses for hash-table construction (§4.1, §4.6). Stores whose owner is
//     the calling rank skip the buffer entirely and apply in place — the
//     local-vs-remote store distinction of the paper.
//   - Batched reads (GetBatch): the read-side twin of aggregating stores,
//     for reads whose keys are all known before any answer is needed. The
//     keys are grouped by owner and each owner is asked once, for each
//     distinct key once; this repo's addition, since the paper aggregates
//     stores only.
//
// Storage is flat: each lock stripe of a shard is one open-addressed slot
// array (internal/flat) addressed by the hash the caller already computed,
// so no path hashes a key twice and a lookup is one probe sequence over
// adjacent cache lines. Options.Hash feeds three disjoint consumers:
// placement takes h itself (mod p or the oracle vector), the stripe index
// the low bits of flat.Mix(h), the slot index the high bits of
// flat.Mix(h) × a per-capacity salt.
//
// Concurrency is phase-aware. During construction each shard is split into
// power-of-two lock stripes so ranks flushing into one owner do not
// funnel through a single mutex; a rank applying a batch to its own shard
// takes all of its stripes once instead (OwnShard). The pipeline's
// read-heavy phases run against tables that are no longer mutated: the
// k-mer table (traversal's extension lookups, bubble depths, closure
// verification) and the seed index (merAligner). Freeze publishes every
// stripe's slot array as immutable, and Get and GetBatch are then served
// lock-free. Writes to a frozen table panic, as does a GetBatch on a
// table that is not frozen; Thaw restores writability.
//
// Physically everything is an in-process sharded table; the xrt cost layer
// supplies the distributed-memory semantics of interest.
package dht

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"hipmer/internal/flat"
	"hipmer/internal/xrt"
)

// PlaceFunc maps a key hash to an owning rank.
type PlaceFunc func(hash uint64) int

// Options configures a Table.
type Options[K comparable] struct {
	// Hash maps a key to a 64-bit hash. Required.
	Hash func(K) uint64
	// Place overrides the owner computation; nil means hash % ranks.
	Place PlaceFunc
	// OwnerHash, when non-nil, supplies the hash fed to placement instead
	// of Hash: the owner of a key is Place(OwnerHash(k)) (or OwnerHash(k)
	// mod ranks). Hash keeps driving stripe selection, so co-locating
	// related keys — all k-mers sharing a minimizer, say — does not
	// collapse them onto one stripe. Every access
	// path (Put, Get, Mutate, Lookup, Owner, and blob decode)
	// places through it, so senders that route payloads by the same hash
	// stay consistent with point lookups.
	OwnerHash func(K) uint64
	// ItemBytes approximates the wire size of one key+value, used for
	// bandwidth charging. Defaults to 24.
	ItemBytes int
	// AggBufSize is the aggregating-stores buffer length per destination
	// rank. 1 disables aggregation (one message per store, the behaviour
	// the baselines use). Defaults to 512.
	AggBufSize int
	// ExpectedItems is a hint of the global entry count. It allocates
	// nothing: a stripe's slot array appears at its first insert, sized an
	// eighth of the stripe's share of ExpectedItems (two thirds full), and
	// moves to the full share only if it fills that; past it, it grows a
	// quarter at a time (shares are uneven — minimizer placement skews
	// them by tens of percent — and a doubling would leave the fuller
	// stripes a third full). An overestimate therefore costs a stripe at
	// most one step, never
	// storage for entries the table was only told about — but the hint is
	// for counts the caller has (a checkpoint's entry count, the k-mers a
	// graph is projected from), not for estimates of another quantity (a
	// distinct-k-mer estimate of k-mer analysis counts the single-
	// occurrence k-mers its count keeps out). 0 means no hint:
	// stripes start at 8 slots and double.
	ExpectedItems int64
}

const (
	// stripes is the number of lock stripes per shard, a power of two.
	// Construction-time flushes from different ranks contend only when
	// they land on the same stripe of the same owner.
	stripes = 8
	// blobBytes is the flush threshold of the byte-payload store path
	// (PutBlob): encoded records are buffered per destination rank and
	// shipped as one message once the buffer reaches this many bytes.
	blobBytes = 16384
)

// ApplyFunc is an owner-side store handler: it runs under the owning
// stripe's lock with a handle on the key's entry in the stripe's slot
// array, letting callers attach owner-side state to the application of
// aggregated stores. The handle reaches that one key only — other keys of
// the shard may live in other stripes. Only the (owner, stripe) lock is
// held, so handler state shared across a whole owner would race under
// concurrent flushes from different ranks; key any auxiliary state by
// owner*Stripes()+stripe instead (a key always maps to the same stripe, so
// per-stripe state partitions the keys exactly — e.g. a Bloom filter per
// stripe). h is the key's Options.Hash value, computed once on the store
// path and handed through so handlers needing hash bits (Bloom probes,
// sketches) never rehash the key.
type ApplyFunc[K comparable, V any] func(owner, stripe int, h uint64, k K, incoming V, e Entry[K, V])

// Entry is an ApplyFunc's handle on its key's slot. Get and Upsert return
// pointers into the slot array, so a read-modify-write is one probe and no
// value copy; a pointer is valid until the next Upsert through any handle
// on the same stripe, and never outlives the handler call.
type Entry[K comparable, V any] struct {
	m   *flat.Map[K, V]
	mix uint64
	k   K
}

// Get returns the stored value, or nil when the key is absent.
func (e Entry[K, V]) Get() *V { return e.m.Get(e.mix, e.k) }

// Upsert returns the stored value, inserting a zero one first when the
// key is absent; inserted reports which.
func (e Entry[K, V]) Upsert() (v *V, inserted bool) { return e.m.Upsert(e.mix, e.k) }

// BlobApplyFunc decodes one delivered byte payload at its owner: src and
// owner identify the sending and owning ranks, payload is the
// concatenation of records the sender framed with PutBlob, and put
// applies one decoded item through the table's regular owner-side path
// (stripe lock + apply hook / merge). The function runs on the sender's
// goroutine against the owner's shard, exactly like an aggregated-store
// flush, so it must not touch state outside the put callback unless that
// state is safe under concurrent flushes.
type BlobApplyFunc[K comparable, V any] func(src, owner int, payload []byte, put func(k K, v V))

// Table is a distributed hash table of K→V with a user-supplied merge
// function applied when a Put lands on an existing key.
type Table[K comparable, V any] struct {
	team      *xrt.Team
	opt       Options[K]
	merge     func(old V, incoming V, exists bool) V
	apply     ApplyFunc[K, V]     // overrides merge when non-nil
	blobApply BlobApplyFunc[K, V] // owner-side decoder for PutBlob payloads

	frozen atomic.Bool
	shards []shard[K, V]
	locals []localState[K, V]
}

// SetApply installs an owner-side apply hook that replaces the merge
// function for subsequent Put flushes. Must not be called while an SPMD
// phase is mutating the table.
func (t *Table[K, V]) SetApply(fn ApplyFunc[K, V]) { t.apply = fn }

// SetBlobApply installs the owner-side decoder for PutBlob payloads. Must
// not be called while an SPMD phase is mutating the table.
func (t *Table[K, V]) SetBlobApply(fn BlobApplyFunc[K, V]) { t.blobApply = fn }

// stripe is one lock-striped fragment of a shard: a mutex and the slot
// array it guards, padded to a cache line so neighbouring stripe locks do
// not share one.
type stripe[K comparable, V any] struct {
	mu sync.Mutex
	m  flat.Map[K, V]
	_  [8]byte
}

type shard[K comparable, V any] struct {
	stripes []stripe[K, V]
}

type kv[K comparable, V any] struct {
	k K
	v V
	h uint64 // key hash, computed once at Put time
}

type localState[K comparable, V any] struct {
	bufs      [][]kv[K, V] // per destination rank
	blobBufs  [][]byte     // per destination rank: concatenated PutBlob records
	blobItems []int        // logical item count buffered per destination
	getCounts []int        // GetBatch's distinct keys per owner, all zero between calls
	getFirst  []int32      // GetBatch's distinct-key set: 1 + a key's first index, 0 empty
}

// New creates a table across the team. merge resolves Put collisions:
// it receives the existing value (zero if !exists) and the incoming one
// and returns the value to store. A nil merge means "last write wins".
func New[K comparable, V any](team *xrt.Team, opt Options[K],
	merge func(old V, incoming V, exists bool) V) *Table[K, V] {
	if opt.Hash == nil {
		panic("dht: Options.Hash is required")
	}
	if opt.ItemBytes <= 0 {
		opt.ItemBytes = 24
	}
	if opt.AggBufSize <= 0 {
		opt.AggBufSize = 512
	}
	if merge == nil {
		merge = func(_ V, in V, _ bool) V { return in }
	}
	p := team.Config().Ranks
	t := &Table[K, V]{team: team, opt: opt, merge: merge}
	aim := 0
	if opt.ExpectedItems > 0 {
		perStripe := int(opt.ExpectedItems/int64(p*stripes)) + 1
		aim = perStripe + perStripe/2
	}
	t.shards = make([]shard[K, V], p)
	for i := range t.shards {
		t.shards[i].stripes = make([]stripe[K, V], stripes)
		for s := range t.shards[i].stripes {
			t.shards[i].stripes[s].m.Aim(aim)
		}
	}
	t.locals = make([]localState[K, V], p)
	for i := range t.locals {
		t.locals[i].bufs = make([][]kv[K, V], p)
		t.locals[i].blobBufs = make([][]byte, p)
		t.locals[i].blobItems = make([]int, p)
	}
	return t
}

// ownerOf places a key hash under the current placement. A placement
// function built for a different rank geometry (an oracle vector from
// another grid reaching a rescaled team) must never index outside this
// team's shards, so out-of-range answers fall back to the uniform
// layout instead of corrupting memory.
func (t *Table[K, V]) ownerOf(h uint64) int {
	p := t.team.Config().Ranks
	if t.opt.Place != nil {
		if o := t.opt.Place(h); 0 <= o && o < p {
			return o
		}
	}
	return int(h % uint64(p))
}

// placeKey resolves the owner of key k whose Options.Hash value is h:
// through OwnerHash when configured, through h otherwise.
func (t *Table[K, V]) placeKey(k K, h uint64) int {
	if t.opt.OwnerHash != nil {
		return t.ownerOf(t.opt.OwnerHash(k))
	}
	return t.ownerOf(h)
}

// stripeOf returns the stripe of shard dst holding keys whose mixed hash
// (flat.Mix of the Options.Hash value) is mix, and its index — identical
// for every shard: placement picks the shard, the mixed hash's low bits
// the stripe.
func (t *Table[K, V]) stripeOf(dst int, mix uint64) (*stripe[K, V], int) {
	si := int(mix & (stripes - 1))
	return &t.shards[dst].stripes[si], si
}

// Stripes returns the number of lock stripes per shard, for sizing
// per-(owner, stripe) state used by an ApplyFunc.
func (t *Table[K, V]) Stripes() int { return stripes }

// Owner returns the rank owning key k under the current placement.
func (t *Table[K, V]) Owner(k K) int {
	return t.placeKey(k, t.opt.Hash(k))
}

// assertMutable panics when a write lands on a frozen table — the
// phase-discipline assertion: mutation is only legal between Thaw and the
// next Freeze.
func (t *Table[K, V]) assertMutable(op string) {
	if t.frozen.Load() {
		panic("dht: " + op + " on frozen table (call Thaw before writing)")
	}
}

// Freeze is collective: every rank of a Run phase must call it. It drains
// the calling rank's store buffers, barriers, and publishes every stripe's
// slot array as immutable — the arrays construction filled, from then on
// read without the lock; subsequent Gets are served lock-free. Freeze
// allocates nothing. Any Put/Mutate/local rewrite on the frozen table
// panics.
//
// Freeze is idempotent: freezing an already-frozen table is a documented
// no-op (one barrier, contents untouched), so code handed a
// table of unknown phase — checkpoint rehydration in particular — can
// freeze unconditionally. The phase discipline (no concurrent
// Freeze/Thaw) means every rank branches the same way.
func (t *Table[K, V]) Freeze(r *xrt.Rank) {
	if t.frozen.Load() {
		r.Barrier()
		return
	}
	t.Flush(r)
	r.Barrier()
	if r.ID == 0 {
		t.frozen.Store(true)
	}
	r.Barrier()
}

// Thaw is collective: it restores writability once every rank has
// finished its lock-free frozen reads. Like Freeze it is idempotent:
// thawing a writable table is a no-op.
func (t *Table[K, V]) Thaw(r *xrt.Rank) {
	if !t.frozen.Load() {
		r.Barrier()
		return
	}
	r.Barrier()
	if r.ID == 0 {
		t.frozen.Store(false)
	}
	r.Barrier()
}

// Put enqueues a store of (k, v); it is applied at the owner when the
// destination buffer fills or Flush is called. Stores owned by the
// calling rank bypass the buffer and apply immediately under the stripe
// lock (visibility of local stores is therefore immediate; remote stores
// are guaranteed visible only after Flush + barrier, matching the
// one-sided aggregating-stores semantics of the paper).
func (t *Table[K, V]) Put(r *xrt.Rank, k K, v V) {
	t.PutHashed(r, t.opt.Hash(k), k, v)
}

// PutHashed is Put with the key's Options.Hash value precomputed by the
// caller (the hash-once path of scanning loops that already derived h for
// sketching or screening). h must equal Options.Hash(k).
func (t *Table[K, V]) PutHashed(r *xrt.Rank, h uint64, k K, v V) {
	t.assertMutable("Put")
	dst := t.placeKey(k, h)
	if dst == r.ID {
		t.putOwned(r, h, k, v)
		return
	}
	ls := &t.locals[r.ID]
	ls.bufs[dst] = append(ls.bufs[dst], kv[K, V]{k, v, h})
	if len(ls.bufs[dst]) >= t.opt.AggBufSize {
		t.flushTo(r, dst)
	}
}

// putOwned is the rank-local fast path of Put: no buffering, no message —
// the paper's local store, charged as such and applied in place.
func (t *Table[K, V]) putOwned(r *xrt.Rank, h uint64, k K, v V) {
	r.ChargeStoreBatch(r.ID, 1, t.opt.ItemBytes)
	t.applyOne(r.ID, h, k, v)
}

// Owned is the calling rank's handle on its own shard for the length of an
// OwnShard section.
type Owned[K comparable, V any] struct {
	stripes []stripe[K, V]
}

// Entry returns the handle on key k, whose Options.Hash value is h, and
// the index of the stripe holding it — the (owner, stripe) an ApplyFunc
// would be handed, for state partitioned the same way. The caller asserts
// it owns k, as the sender of a PutBlob asserts its destination: a key
// stored on a rank that does not own it is stranded where lookups never
// search.
func (o Owned[K, V]) Entry(h uint64, k K) (Entry[K, V], int) {
	mix := flat.Mix(h)
	si := int(mix & (stripes - 1))
	return Entry[K, V]{&o.stripes[si].m, mix, k}, si
}

// OwnShard runs fn with every stripe lock of the calling rank's shard held:
// the owner-computes section of a rank applying, by itself and in an order
// it chooses, what placement already routed to it. One lock round for the
// whole section instead of one per key; stores, flushes and Mutates other
// ranks aim at this shard wait for the section to end, so fn must touch
// the table through its handle only (a Put or Mutate of its own would
// wait for itself). It charges nothing and applies no hook — fn charges
// what its work is modelled to cost. The locks are released on the way out
// of a panic too: a charge inside fn can be an injected crash, and the
// ranks it strands must still reach their own.
func (t *Table[K, V]) OwnShard(r *xrt.Rank, fn func(own Owned[K, V])) {
	t.assertMutable("OwnShard")
	own := t.shards[r.ID].stripes
	for i := range own {
		own[i].mu.Lock()
	}
	defer func() {
		for i := range own {
			own[i].mu.Unlock()
		}
	}()
	fn(Owned[K, V]{own})
}

// PutBlob enqueues one pre-framed record — decodable by the table's
// SetBlobApply hook — destined for rank dst, carrying items logical
// items. Records accumulate per destination and ship as ONE message of
// the buffered byte length once it reaches blobBytes (or at
// Flush/Freeze): the super-k-mer transport, where an L-base record
// carries L−k+1 k-mers for ~L/4 wire bytes instead of L−k+1 item
// records. The charge goes through the same ChargeStoreBatch as
// aggregated stores, so chaos/fault injection treats a dropped blob as
// one retried unit and the receiver is charged per decoded item.
//
// The destination must be consistent with the table's placement (for a
// minimizer-binned table, dst = the owner every record key places to via
// OwnerHash); PutBlob cannot check this — the table only sees bytes —
// and a mismatch would strand decoded items on a shard lookups never
// search.
func (t *Table[K, V]) PutBlob(r *xrt.Rank, dst int, record []byte, items int) {
	t.assertMutable("PutBlob")
	if t.blobApply == nil {
		panic("dht: PutBlob without SetBlobApply")
	}
	ls := &t.locals[r.ID]
	ls.blobBufs[dst] = append(ls.blobBufs[dst], record...)
	ls.blobItems[dst] += items
	if len(ls.blobBufs[dst]) >= blobBytes {
		t.flushBlobTo(r, dst)
	}
}

// applyOne applies one store of (k, v), whose Options.Hash value is h, at
// its owner dst: under the stripe lock, through the apply hook when one is
// installed and the merge function otherwise.
func (t *Table[K, V]) applyOne(dst int, h uint64, k K, v V) {
	mix := flat.Mix(h)
	st, si := t.stripeOf(dst, mix)
	st.mu.Lock()
	if t.apply != nil {
		t.apply(dst, si, h, k, v, Entry[K, V]{&st.m, mix, k})
	} else {
		old, inserted := st.m.Upsert(mix, k)
		*old = t.merge(*old, v, !inserted)
	}
	st.mu.Unlock()
}

func (t *Table[K, V]) flushTo(r *xrt.Rank, dst int) {
	ls := &t.locals[r.ID]
	buf := ls.bufs[dst]
	if len(buf) == 0 {
		return
	}
	t.assertMutable("Flush")
	// schedule-perturbation point: delaying a flush widens the window in
	// which other ranks' lookups race the buffered stores
	r.PerturbPoint(xrt.PerturbFlush)
	r.ChargeStoreBatch(dst, len(buf), len(buf)*t.opt.ItemBytes)
	for _, e := range buf {
		t.applyOne(dst, e.h, e.k, e.v)
	}
	ls.bufs[dst] = buf[:0]
}

// flushBlobTo ships one destination's buffered blob payload as a single
// message and decodes it into the owner's shard through the blob apply
// hook. The payload buffer is reused after the call: a hook that retains
// bytes past its return must copy them.
func (t *Table[K, V]) flushBlobTo(r *xrt.Rank, dst int) {
	ls := &t.locals[r.ID]
	buf := ls.blobBufs[dst]
	if len(buf) == 0 {
		return
	}
	t.assertMutable("Flush")
	items := ls.blobItems[dst]
	r.PerturbPoint(xrt.PerturbFlush)
	r.ChargeStoreBatch(dst, items, len(buf))
	t.blobApply(r.ID, dst, buf, func(k K, v V) {
		t.applyOne(dst, t.opt.Hash(k), k, v)
	})
	ls.blobBufs[dst] = buf[:0]
	ls.blobItems[dst] = 0
}

// Flush drains all of the calling rank's store buffers — item and blob
// alike. Callers normally follow a collective Flush with a barrier before
// reading.
func (t *Table[K, V]) Flush(r *xrt.Rank) {
	for dst := range t.locals[r.ID].bufs {
		t.flushTo(r, dst)
	}
	for dst := range t.locals[r.ID].blobBufs {
		t.flushBlobTo(r, dst)
	}
}

// load copies the value under k out of its stripe, locking unless the
// table is frozen.
func (t *Table[K, V]) load(dst int, mix uint64, k K, frozen bool) (v V, ok bool) {
	st, _ := t.stripeOf(dst, mix)
	if !frozen {
		st.mu.Lock()
		defer st.mu.Unlock()
	}
	if p := st.m.Get(mix, k); p != nil {
		return *p, true
	}
	return v, false
}

// Get performs an irregular lookup: one message to the owner (unless
// local), classified and charged by the xrt layer. On a frozen table the
// read is lock-free.
func (t *Table[K, V]) Get(r *xrt.Rank, k K) (V, bool) {
	h := t.opt.Hash(k)
	dst := t.placeKey(k, h)
	r.ChargeLookup(dst, t.opt.ItemBytes)
	return t.load(dst, flat.Mix(h), k, t.frozen.Load())
}

// GetBatch reads keys from the frozen table as one aggregated exchange per
// owner: the read-side twin of aggregating stores, for keys the caller
// knows before it needs any answer. Each owner is asked once per distinct
// key it holds: one ChargeLookupBatch of n items for its n distinct keys,
// in rank order. A key met again later in the batch is answered from the
// first one's reply, so its owner is not asked twice; the requester bills
// such repeats as local lookups. fn then receives each key's value, in key
// order: v and ok as Get would return them for keys[i]. A read whose key
// depends on an earlier answer has no batch to join, and stays a Get.
func (t *Table[K, V]) GetBatch(r *xrt.Rank, keys []K, fn func(i int, v V, ok bool)) {
	if !t.frozen.Load() {
		panic("dht: GetBatch on a mutable table (call Freeze before batched reads)")
	}
	ls := &t.locals[r.ID]
	if ls.getCounts == nil {
		ls.getCounts = make([]int, len(t.shards))
	}
	counts := ls.getCounts
	// the distinct keys: an open-addressed set of first indices, at most
	// two thirds full, cleared over this batch's size only
	size := 1 << bits.Len(uint(len(keys)+len(keys)/2))
	if cap(ls.getFirst) < size {
		ls.getFirst = make([]int32, size)
	}
	first := ls.getFirst[:size]
	clear(first)
	for i, k := range keys {
		h := t.opt.Hash(k)
		for j := int(flat.Mix(h)) & (size - 1); ; j = (j + 1) & (size - 1) {
			if f := first[j]; f == 0 {
				first[j] = int32(i + 1)
				counts[t.placeKey(k, h)]++
				break
			} else if keys[f-1] == k {
				counts[r.ID]++ // a repeat: the first key's reply answers it
				break
			}
		}
	}
	for dst, n := range counts {
		if n > 0 {
			counts[dst] = 0
			r.ChargeLookupBatch(dst, n, n*t.opt.ItemBytes)
		}
	}
	// the frozen shards answer a repeated key exactly as they answered its
	// first occurrence
	for i, k := range keys {
		h := t.opt.Hash(k)
		v, ok := t.load(t.placeKey(k, h), flat.Mix(h), k, true)
		fn(i, v, ok)
	}
}

// Mutate runs fn atomically on the value stored under k at its owner,
// modelling a remote atomic. fn receives the current value and whether it
// exists and returns the new value and whether to store it. Results can be
// captured through the closure.
func (t *Table[K, V]) Mutate(r *xrt.Rank, k K, fn func(v V, exists bool) (V, bool)) {
	t.assertMutable("Mutate")
	h := t.opt.Hash(k)
	dst := t.placeKey(k, h)
	r.ChargeLookup(dst, t.opt.ItemBytes)
	mix := flat.Mix(h)
	st, _ := t.stripeOf(dst, mix)
	st.mu.Lock()
	defer st.mu.Unlock() // fn may panic (injected crash); never strand the stripe
	if p := st.m.Get(mix, k); p != nil {
		if nv, store := fn(*p, true); store {
			*p = nv
		}
		return
	}
	var zero V
	if nv, store := fn(zero, false); store {
		p, _ := st.m.Upsert(mix, k)
		*p = nv
	}
}

// RefAt is the owner's side of a run, the read-modify-write pattern of a
// phase whose ranks are stepped one at a time (xrt.RunEvents): a step that
// reaches a key's owner keeps working there while the keys it meets are
// that owner's, and bills the whole run as one Rank.ChargeLookupBatch. RefAt
// probes the shard of rank owner for k and charges nothing. It returns a
// pointer to the value stored there, for the step to read and write in
// place, good until the table's next insert; no lock is taken. A key found
// in a shard is owned by that shard's rank, so a run needs no Owner per
// key: nil says k is absent or owned elsewhere, and Owner tells which.
func (t *Table[K, V]) RefAt(owner int, k K) *V {
	t.assertMutable("RefAt")
	mix := flat.Mix(t.opt.Hash(k))
	st, _ := t.stripeOf(owner, mix)
	return st.m.Get(mix, k)
}

// GetAt is RefAt for reads: the value stored under k in the shard of rank
// owner, uncharged, for a run to answer from an owner's shard of another
// table that places keys as its own does (SamePlacement).
func (t *Table[K, V]) GetAt(owner int, k K) (V, bool) {
	return t.load(owner, flat.Mix(t.opt.Hash(k)), k, t.frozen.Load())
}

// SamePlacement returns opt with t's placement: a table built from it, for
// a team of t's rank count, owns every key on the rank that owns it in t.
// opt's own Hash still picks the stripe and slot of each key.
func (t *Table[K, V]) SamePlacement(opt Options[K]) Options[K] {
	opt.Place, opt.OwnerHash = t.opt.Place, t.opt.OwnerHash
	if opt.OwnerHash == nil {
		opt.OwnerHash = t.opt.Hash
	}
	return opt
}

// visitLocal runs visit over each stripe of the calling rank's shard in
// turn — under the stripe lock unless the table is frozen — and charges
// the per-entry local cost of the entries it reports having visited. It
// stops after the stripe in which visit reports stop.
//
// The charge lands after each stripe's critical section: a charge can
// panic (injected crash), and panicking while holding a stripe lock would
// strand every surviving rank behind it.
func (t *Table[K, V]) visitLocal(r *xrt.Rank, visit func(m *flat.Map[K, V]) (visited int, stop bool)) {
	frozen := t.frozen.Load()
	for i := range t.shards[r.ID].stripes {
		st := &t.shards[r.ID].stripes[i]
		visited, stop := func() (int, bool) {
			if !frozen {
				st.mu.Lock()
				defer st.mu.Unlock()
			}
			return visit(&st.m)
		}()
		r.Charge(float64(visited) * xrt.LocalOpNs)
		if stop {
			return
		}
	}
}

// LocalRange iterates the calling rank's shard. fn returning false stops
// the iteration. Values seen are snapshots; mutating the table during
// iteration is not allowed. Iteration itself is free of communication
// (the paper's "each processor iterates over its local buckets"). The
// order is that of the slot arrays — a function of the keys stored, not of
// the order they arrived in — and callers must not depend on it.
func (t *Table[K, V]) LocalRange(r *xrt.Rank, fn func(k K, v V) bool) {
	t.visitLocal(r, func(m *flat.Map[K, V]) (visited int, stop bool) {
		m.Range(func(_ uint64, k K, v *V) bool {
			visited++
			stop = !fn(k, *v)
			return !stop
		})
		return visited, stop
	})
}

// LocalFilter rewrites or deletes every entry of the calling rank's shard:
// fn returns the new value and whether to keep the entry. Deletion
// compacts the slot arrays in place (no tombstones are left behind).
func (t *Table[K, V]) LocalFilter(r *xrt.Rank, fn func(k K, v V) (V, bool)) {
	t.assertMutable("LocalFilter")
	t.visitLocal(r, func(m *flat.Map[K, V]) (int, bool) {
		visited := m.Len()
		m.Filter(func(k K, v *V) bool {
			nv, keep := fn(k, *v)
			if keep {
				*v = nv
			}
			return keep
		})
		return visited, false
	})
}

// LocalLen returns the number of entries owned by the calling rank.
func (t *Table[K, V]) LocalLen(r *xrt.Rank) int {
	return t.shardLen(r.ID)
}

func (t *Table[K, V]) shardLen(id int) int {
	frozen := t.frozen.Load()
	n := 0
	for i := range t.shards[id].stripes {
		st := &t.shards[id].stripes[i]
		if frozen {
			n += st.m.Len()
			continue
		}
		st.mu.Lock()
		n += st.m.Len()
		st.mu.Unlock()
	}
	return n
}

// GlobalLen returns the total entry count; collective (all ranks must call).
func (t *Table[K, V]) GlobalLen(r *xrt.Rank) int64 {
	return r.AllReduceInt64(int64(t.LocalLen(r)), func(a, b int64) int64 { return a + b })
}

// Len returns the total entry count from outside any SPMD phase (no
// communication charged); safe only between phases.
func (t *Table[K, V]) Len() int64 {
	var n int64
	for i := range t.shards {
		n += int64(t.shardLen(i))
	}
	return n
}

// Lookup reads a key from outside any SPMD phase (validation, output,
// serial pipeline steps); no communication is charged.
func (t *Table[K, V]) Lookup(k K) (V, bool) {
	h := t.opt.Hash(k)
	return t.load(t.placeKey(k, h), flat.Mix(h), k, t.frozen.Load())
}

// RangeAll iterates every shard from a single goroutine, in slot-array
// order (see LocalRange). For use outside Run phases (validation, output);
// no communication is charged.
func (t *Table[K, V]) RangeAll(fn func(k K, v V) bool) {
	frozen := t.frozen.Load()
	for i := range t.shards {
		for s := range t.shards[i].stripes {
			st := &t.shards[i].stripes[s]
			if !frozen {
				st.mu.Lock()
			}
			stop := false
			st.m.Range(func(_ uint64, k K, v *V) bool {
				stop = !fn(k, *v)
				return !stop
			})
			if !frozen {
				st.mu.Unlock()
			}
			if stop {
				return
			}
		}
	}
}

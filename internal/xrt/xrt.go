// Package xrt implements the execution runtime that stands in for the
// UPC/PGAS layer used by the original HipMer. A Team is a set of SPMD
// ranks — each backed by a goroutine in a Run phase, all stepped on one in
// a RunEvents phase — grouped into simulated nodes. All
// inter-rank operations go through the team so that every communication
// event can be classified (local, on-node, off-node), counted, and charged
// to a deterministic virtual clock. The algorithms built on top of xrt run
// for real — only the passage of time is modelled.
//
// Virtual time: each rank owns a clock advanced by calibrated per-event
// costs (the constants LocalOpNs to ItemNs, and the file-system
// CostModel). A phase's virtual duration is the maximum clock advance over
// all ranks (the BSP critical path). Barriers synchronize all clocks to
// the maximum, exactly as a real barrier would. Clocks count whole
// nanoseconds, each charge rounded once where it enters (wholeNs).
package xrt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes a team of SPMD ranks.
type Config struct {
	// Ranks is the number of SPMD ranks ("cores" in the paper's terms).
	Ranks int
	// RanksPerNode groups ranks into simulated nodes; communication between
	// ranks of the same node is cheaper than off-node communication.
	// Edison (the paper's machine) has 24 cores per node. Defaults to 24.
	RanksPerNode int
	// Cost is the virtual-time cost model. Zero value means DefaultCostModel.
	Cost CostModel
	// Seed is the run's identity: the metrics report records it and the
	// checkpoint fingerprint hashes it. No rank draws from it; nothing the
	// team computes or charges depends on it.
	Seed int64
	// Inject arms the injections (see inject.go). The team itself applies
	// the schedule perturbation and the lossy transport, neither of which
	// changes what operations apply, and arms the crash on the span its
	// FailStage names; the disk fault is applied by the checkpoint store
	// the pipeline opens.
	Inject Inject
}

// The calibrated per-event costs, in nanoseconds. They are loosely
// calibrated to the paper's Cray XC30 (Aries interconnect) so that the
// *shape* of the scaling results is reproduced; absolute values are not
// claimed. Message costs model the per-operation software overhead of
// pipelined one-sided communication (UPC gets/puts overlap in flight, so
// sustained cost per operation is far below the wire latency); the
// on-node/off-node ratio follows the paper's observation that intra-node
// accesses are much cheaper than off-node ones.
const (
	// LocalOpNs is the cost of a hash-table operation on rank-local data.
	LocalOpNs float64 = 60
	// OnNodeMsgNs is the latency of a message between ranks on one node.
	OnNodeMsgNs float64 = 150
	// OffNodeMsgNs is the latency of a message crossing nodes.
	OffNodeMsgNs float64 = 450
	// OnNodeByteNs / OffNodeByteNs are the per-byte bandwidth terms.
	OnNodeByteNs  float64 = 0.05
	OffNodeByteNs float64 = 0.15
	// ItemNs is the generic per-item compute cost (processing one k-mer,
	// one base, one alignment seed, ...).
	ItemNs float64 = 45
)

// CostModel holds the file-system calibration, the part of the cost model
// a configuration varies (see DefaultCostModel).
type CostModel struct {
	// IOAggBytesPerSec caps the aggregate file-system bandwidth; per-rank
	// I/O bandwidth is IOAggBytesPerSec/min(Ranks, IOSaturation ranks).
	IOAggBytesPerSec float64
	// IORankBytesPerSec is the bandwidth a single rank can draw by itself.
	IORankBytesPerSec float64
	// IOLatencyNs is the fixed per-I/O-phase latency.
	IOLatencyNs float64
}

// DefaultCostModel returns the file-system calibration used by the
// experiment harness: Edison's Lustre /scratch3 (72 GB/s aggregate, ~75
// MB/s per reading stream). Experiment configurations lower the aggregate
// cap so that saturation lands inside their scaled-down core sweeps, as it
// did near 960 cores on the real machine.
func DefaultCostModel() CostModel {
	return CostModel{
		IOAggBytesPerSec:  72e9,
		IORankBytesPerSec: 75e6,
		IOLatencyNs:       3e5,
	}
}

func (c CostModel) withDefaults() CostModel {
	d := DefaultCostModel()
	if c.IOAggBytesPerSec == 0 {
		c.IOAggBytesPerSec = d.IOAggBytesPerSec
	}
	if c.IORankBytesPerSec == 0 {
		c.IORankBytesPerSec = d.IORankBytesPerSec
	}
	if c.IOLatencyNs == 0 {
		c.IOLatencyNs = d.IOLatencyNs
	}
	return c
}

// Locality classifies a communication event by where its target lives.
type Locality int

const (
	// Local means the target data lives on the calling rank.
	Local Locality = iota
	// OnNode means the target rank shares a node with the caller.
	OnNode
	// OffNode means the target rank is on another node.
	OffNode
)

func (l Locality) String() string {
	switch l {
	case Local:
		return "local"
	case OnNode:
		return "on-node"
	default:
		return "off-node"
	}
}

// CommStats counts communication events issued by one rank. Lookup
// counters record the locality of read operations (the quantity reported
// in the paper's Table 2); message counters record transfers, and byte
// counters record traffic volume. Cache counters record merAligner's
// contig-sequence cache: a hit is a contig fetch served rank-locally (it
// appears here instead of in the lookup counters), a miss is a fetch that
// went to the contig's owner as a lookup.
type CommStats struct {
	LocalLookups   int64 `json:"local_lookups"`
	OnNodeLookups  int64 `json:"on_node_lookups"`
	OffNodeLookups int64 `json:"off_node_lookups"`
	LocalStores    int64 `json:"local_stores"`
	OnNodeMsgs     int64 `json:"on_node_msgs"`
	OffNodeMsgs    int64 `json:"off_node_msgs"`
	OnNodeBytes    int64 `json:"on_node_bytes"`
	OffNodeBytes   int64 `json:"off_node_bytes"`
	IOBytes        int64 `json:"io_bytes"`
	IOWriteBytes   int64 `json:"io_write_bytes"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	// Reliability-layer counters, nonzero only under Inject.ChaosSeed
	// (see chaos.go): transmissions lost (message or ack), retransmissions
	// issued, duplicate deliveries (a retransmission after a lost ack) the
	// receiver discards, and the payload bytes retransmissions carried.
	Drops            int64 `json:"drops"`
	Retries          int64 `json:"retries"`
	Dups             int64 `json:"dups"`
	RedeliveredBytes int64 `json:"redelivered_bytes"`
	// Storage-fault counters, nonzero only under Inject.DiskFaultSeed (see
	// diskfault.go): checkpoint segments damaged by an injected storage
	// fault, and the manifest bytes a later scrub pass dropped back to
	// recomputation while healing the damage.
	DiskFaults         int64 `json:"disk_faults"`
	ScrubRepairedBytes int64 `json:"scrub_repaired_bytes"`
}

// Add accumulates o into s.
func (s *CommStats) Add(o CommStats) {
	s.LocalLookups += o.LocalLookups
	s.OnNodeLookups += o.OnNodeLookups
	s.OffNodeLookups += o.OffNodeLookups
	s.LocalStores += o.LocalStores
	s.OnNodeMsgs += o.OnNodeMsgs
	s.OffNodeMsgs += o.OffNodeMsgs
	s.OnNodeBytes += o.OnNodeBytes
	s.OffNodeBytes += o.OffNodeBytes
	s.IOBytes += o.IOBytes
	s.IOWriteBytes += o.IOWriteBytes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Drops += o.Drops
	s.Retries += o.Retries
	s.Dups += o.Dups
	s.RedeliveredBytes += o.RedeliveredBytes
	s.DiskFaults += o.DiskFaults
	s.ScrubRepairedBytes += o.ScrubRepairedBytes
}

// Sub returns s - o, used for per-phase deltas.
func (s CommStats) Sub(o CommStats) CommStats {
	return CommStats{
		LocalLookups:       s.LocalLookups - o.LocalLookups,
		OnNodeLookups:      s.OnNodeLookups - o.OnNodeLookups,
		OffNodeLookups:     s.OffNodeLookups - o.OffNodeLookups,
		LocalStores:        s.LocalStores - o.LocalStores,
		OnNodeMsgs:         s.OnNodeMsgs - o.OnNodeMsgs,
		OffNodeMsgs:        s.OffNodeMsgs - o.OffNodeMsgs,
		OnNodeBytes:        s.OnNodeBytes - o.OnNodeBytes,
		OffNodeBytes:       s.OffNodeBytes - o.OffNodeBytes,
		IOBytes:            s.IOBytes - o.IOBytes,
		IOWriteBytes:       s.IOWriteBytes - o.IOWriteBytes,
		CacheHits:          s.CacheHits - o.CacheHits,
		CacheMisses:        s.CacheMisses - o.CacheMisses,
		Drops:              s.Drops - o.Drops,
		Retries:            s.Retries - o.Retries,
		Dups:               s.Dups - o.Dups,
		RedeliveredBytes:   s.RedeliveredBytes - o.RedeliveredBytes,
		DiskFaults:         s.DiskFaults - o.DiskFaults,
		ScrubRepairedBytes: s.ScrubRepairedBytes - o.ScrubRepairedBytes,
	}
}

// Lookups returns the total number of lookups across localities.
func (s CommStats) Lookups() int64 {
	return s.LocalLookups + s.OnNodeLookups + s.OffNodeLookups
}

// Msgs returns the total number of messages sent (on-node + off-node).
func (s CommStats) Msgs() int64 { return s.OnNodeMsgs + s.OffNodeMsgs }

// Bytes returns the total network traffic volume (on-node + off-node).
func (s CommStats) Bytes() int64 { return s.OnNodeBytes + s.OffNodeBytes }

// BytesPerMsg returns the mean message size, 0 when no messages were
// sent. Like every derived-rate helper it must stay finite on empty
// deltas (an empty-stage span subtracts identical snapshots), so a zero
// denominator yields 0, never NaN or Inf.
func (s CommStats) BytesPerMsg() float64 {
	m := s.Msgs()
	if m == 0 {
		return 0
	}
	return float64(s.Bytes()) / float64(m)
}

// OffNodeLookupFrac returns the fraction of lookups that crossed nodes.
func (s CommStats) OffNodeLookupFrac() float64 {
	t := s.Lookups()
	if t == 0 {
		return 0
	}
	return float64(s.OffNodeLookups) / float64(t)
}

// CacheHitRate returns the fraction of contig fetches the cache served (0
// when no contig was fetched).
func (s CommStats) CacheHitRate() float64 {
	t := s.CacheHits + s.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(t)
}

// Rank is the per-goroutine handle inside a Team.Run body. The clock and
// stats fields are owned by the rank's goroutine; other ranks may add
// "foreign" charges (work they enqueue on this rank) through atomic
// counters that are folded in at synchronization points.
type Rank struct {
	ID   int
	team *Team

	clockNs   int64 // owner-written virtual clock
	workNs    int64 // cumulative charged work; never synchronized (see Team.RankWorkNs)
	commNs    int64 // the part of workNs charged to messages and their bytes
	stats     CommStats
	foreignNs atomic.Int64 // work charged to this rank by other ranks
	pert      *Prng        // delay stream; nil unless perturbation is armed

	// chaos is the message-fault decision stream and nextSeq the per-peer
	// channel sequence counter; both nil unless chaos is armed. Owned by
	// the rank's goroutine (deliveries are simulated sender-side).
	chaos   *Prng
	nextSeq []uint64

	// ordered counts the ordered sections this rank has left (see Ordered).
	ordered int

	// faultCD counts down charge events until this rank's injected crash;
	// 0 means this rank is not the armed fault's victim (see fault.go).
	// Only touched from the rank's own goroutine while a fault is armed.
	faultCD int64
}

// advance charges ns of work: the virtual clock moves, and the rank's
// busy-time accumulator moves with it. Barriers later synchronize the
// clock to the team maximum but never touch workNs, so per-span workNs
// deltas expose the per-rank load imbalance that clock synchronization
// hides.
func (r *Rank) advance(ns int64) {
	r.clockNs += ns
	r.workNs += ns
	if r.team.faultOn {
		r.faultPoint()
	}
}

// Team returns the team this rank belongs to.
func (r *Rank) Team() *Team { return r.team }

// N returns the number of ranks in the team.
func (r *Rank) N() int { return r.team.cfg.Ranks }

// Node returns the simulated node index hosting this rank.
func (r *Rank) Node() int { return r.ID / r.team.cfg.RanksPerNode }

// Locality classifies the placement of rank dst relative to the caller.
func (r *Rank) Locality(dst int) Locality {
	if dst == r.ID {
		return Local
	}
	if dst/r.team.cfg.RanksPerNode == r.Node() {
		return OnNode
	}
	return OffNode
}

// wholeNs is virtual time's one rounding rule: to the nearest whole ns.
func wholeNs(ns float64) int64 { return int64(math.Round(ns)) }

// Charge advances the rank's virtual clock by ns nanoseconds.
func (r *Rank) Charge(ns float64) { r.advance(wholeNs(ns)) }

// ChargeItems charges the generic per-item compute cost for n items.
func (r *Rank) ChargeItems(n int) { r.Charge(float64(n) * ItemNs) }

// ChargeComm charges ns of communication: work like Charge, also counted
// in the span's CommNs. The message charges below go through it, and so
// does a caller that models an exchange itself (a reduction tree's steps).
func (r *Rank) ChargeComm(ns float64) {
	w := wholeNs(ns)
	r.commNs += w
	r.advance(w)
}

// chargeForeignRaw charges ns of work to another rank: the owner of a
// hash-table shard processing items this rank sent it. It rides on an
// already-delivered message (a store batch's per-item apply cost must not
// roll a second drop decision), so it runs no message-fault protocol. The
// foreign accumulator is atomic.
func (r *Rank) chargeForeignRaw(dst int, ns float64) {
	r.team.ranks[dst].foreignNs.Add(wholeNs(ns))
}

// ChargeLookup records a read of one item of the given size whose home is
// rank dst, charging latency and classifying the event.
func (r *Rank) ChargeLookup(dst int, bytes int) {
	r.chaosPoint(dst, bytes)
	switch r.Locality(dst) {
	case Local:
		r.stats.LocalLookups++
		r.Charge(LocalOpNs)
	case OnNode:
		r.stats.OnNodeLookups++
		r.stats.OnNodeMsgs++
		r.stats.OnNodeBytes += int64(bytes)
		r.ChargeComm(OnNodeMsgNs + float64(bytes)*OnNodeByteNs)
	default:
		r.stats.OffNodeLookups++
		r.stats.OffNodeMsgs++
		r.stats.OffNodeBytes += int64(bytes)
		r.ChargeComm(OffNodeMsgNs + float64(bytes)*OffNodeByteNs)
	}
}

// ChargeCacheHit records a remote read served from the rank's software
// cache: local time only, counted as a cache hit instead of a lookup
// (the operation never leaves the rank).
func (r *Rank) ChargeCacheHit() {
	r.stats.CacheHits++
	r.Charge(LocalOpNs)
}

// CountCacheMiss records that a remote read missed the rank's software
// cache; the lookup that served it is charged separately.
func (r *Rank) CountCacheMiss() {
	r.stats.CacheMisses++
}

// ChargeStoreBatch records the transfer of a batch of n items totalling
// the given bytes to rank dst (the aggregating-stores pattern: one message
// per flushed buffer). The receiver is charged the per-item apply cost.
func (r *Rank) ChargeStoreBatch(dst, n, bytes int) {
	r.chaosPoint(dst, bytes)
	if dst == r.ID {
		r.stats.LocalStores += int64(n)
	}
	r.chargeBatch(dst, n, bytes)
}

// ChargeLookupBatch records n reads whose home is rank dst, resolved as
// one exchange carrying bytes of request and reply: the aggregated read of
// keys known before any of them is looked up, the read-side twin of
// ChargeStoreBatch. A remote batch costs the caller one message and its
// bytes and the owner n local operations; a local batch costs the caller
// n local operations, exactly what n local ChargeLookups cost. The reads
// are counted n by locality, the message once, and a lossy transport runs
// one drop/retry exchange for the whole batch.
func (r *Rank) ChargeLookupBatch(dst, n, bytes int) {
	r.chaosPoint(dst, bytes)
	switch r.Locality(dst) {
	case Local:
		r.stats.LocalLookups += int64(n)
	case OnNode:
		r.stats.OnNodeLookups += int64(n)
	default:
		r.stats.OffNodeLookups += int64(n)
	}
	r.chargeBatch(dst, n, bytes)
}

// chargeBatch charges a batch of n items totalling bytes exchanged with
// rank dst: n local operations when dst is the caller, otherwise one
// message to the caller and n local operations to dst.
func (r *Rank) chargeBatch(dst, n, bytes int) {
	switch r.Locality(dst) {
	case Local:
		r.Charge(float64(n) * LocalOpNs)
	case OnNode:
		r.stats.OnNodeMsgs++
		r.stats.OnNodeBytes += int64(bytes)
		r.ChargeComm(OnNodeMsgNs + float64(bytes)*OnNodeByteNs)
		r.chargeForeignRaw(dst, float64(n)*LocalOpNs)
	default:
		r.stats.OffNodeMsgs++
		r.stats.OffNodeBytes += int64(bytes)
		r.ChargeComm(OffNodeMsgNs + float64(bytes)*OffNodeByteNs)
		r.chargeForeignRaw(dst, float64(n)*LocalOpNs)
	}
}

// ChargeIORead models reading bytes from the shared parallel file system
// during a phase where all ranks read concurrently (see chargeIO).
func (r *Rank) ChargeIORead(bytes int64) {
	r.stats.IOBytes += bytes
	r.chargeIO(bytes)
}

// ChargeIOWrite models writing bytes to the shared parallel file system
// (checkpoint segments, output FASTA) under the same saturation model as
// ChargeIORead.
func (r *Rank) ChargeIOWrite(bytes int64) {
	r.stats.IOWriteBytes += bytes
	r.chargeIO(bytes)
}

// chargeIO advances the clock by one parallel-file-system transfer: the
// effective per-rank bandwidth is the aggregate cap divided by the team
// size when that is lower than a single stream's bandwidth, which
// reproduces I/O saturation at high concurrency.
func (r *Rank) chargeIO(bytes int64) {
	c := &r.team.cost
	bw := c.IORankBytesPerSec
	if agg := c.IOAggBytesPerSec / float64(r.team.cfg.Ranks); agg < bw {
		bw = agg
	}
	r.Charge(c.IOLatencyNs + float64(bytes)/bw*1e9)
}

// CountDiskFault records that an injected storage fault damaged a
// checkpoint segment this rank helped write. Counting only — the I/O
// itself is charged through ChargeIOWrite; a damaged write costs the
// same virtual time as a clean one.
func (r *Rank) CountDiskFault() {
	r.stats.DiskFaults++
}

// CountScrubRepair records that a checkpoint scrub pass dropped bytes
// of damaged (or damage-shadowed) checkpoint state back to
// recomputation while healing a resume. Counting only; the scrub's
// re-validation reads are charged through ChargeIORead.
func (r *Rank) CountScrubRepair(bytes int64) {
	r.stats.ScrubRepairedBytes += bytes
}

// clock returns the rank's current virtual clock including foreign
// charges. Only safe to read from the owning goroutine or after a join.
func (r *Rank) clock() int64 { return r.clockNs + r.foreignNs.Load() }

// foldForeign moves the foreign charges into the clock and busy time
// without visiting the fault hook: it runs in barrier epilogues, and an
// injected crash must fire on the victim's own goroutine — where panicking
// unwinds the victim's stack — never inside another goroutine's epilogue.
func (r *Rank) foldForeign() {
	ns := r.foreignNs.Swap(0)
	r.clockNs += ns
	r.workNs += ns
}

// Team is a fixed set of SPMD ranks with collective operations.
type Team struct {
	cfg  Config
	cost CostModel

	ranks []*Rank
	bar   *barrier

	// scratch buffers for collectives, indexed by rank
	sInt []int64
	sAny []any

	// span bookkeeping (see span.go); orchestrator-goroutine only
	spans []*SpanRecord
	open  []*openSpan

	// fault-injection state (see fault.go). faultOn is written by the
	// orchestrator between phases (BeginSpan/EndSpan) and read by ranks
	// inside phases; the Run fork/join provides the happens-before edges.
	// faultTripped is atomic because a tripping rank sets it mid-phase for
	// the others to see.
	faultOn      bool
	faultTripped atomic.Bool
	// The recorded trip (see Rank.trip): the tripping rank's own virtual
	// clock at the instant it killed the team (victim rank for an injected
	// crash, exhausted sender for chaos), its id and its typed error — the
	// least (clock, id) when several ranks trip between two barriers.
	// Guarded by tripMu inside a phase, read freely once the team is dead.
	// Unlike VirtualNow after a trip — survivors unwind wherever they
	// observe it, dragging the clock maximum with them — the record is a
	// function of the input, so the job scheduler bills it as a failed
	// attempt's duration.
	tripMu      sync.Mutex
	tripClockNs int64
	tripRank    int
	tripErr     error
}

// NewTeam creates a team. The team may execute multiple Run phases; rank
// clocks and stats persist across phases.
func NewTeam(cfg Config) *Team {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("xrt: invalid rank count %d", cfg.Ranks))
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 24
	}
	cfg.Cost = cfg.Cost.withDefaults()
	t := &Team{
		cfg:  cfg,
		cost: cfg.Cost,
		bar:  newBarrier(cfg.Ranks),
		sInt: make([]int64, cfg.Ranks),
		sAny: make([]any, cfg.Ranks),
	}
	t.ranks = make([]*Rank, cfg.Ranks)
	for i := range t.ranks {
		t.ranks[i] = &Rank{ID: i, team: t}
		if cfg.Inject.PerturbSeed != 0 {
			t.ranks[i].pert = NewPrng(perturbSeed(cfg.Inject.PerturbSeed, i))
		}
		if cfg.Inject.ChaosSeed != 0 {
			t.ranks[i].chaos = NewPrng(chaosSeed(cfg.Inject.ChaosSeed, i))
			t.ranks[i].nextSeq = make([]uint64, cfg.Ranks)
		}
	}
	return t
}

// Config returns the team configuration.
func (t *Team) Config() Config { return t.cfg }

// Cost returns the team cost model.
func (t *Team) Cost() CostModel { return t.cost }

// Deal partitions an ordered list onto p ranks round-robin: item i goes
// to rank i % p and each rank's share keeps the list's order. Every
// "order by ID, then deal" layout of the pipeline — contig results,
// carried pseudo-reads, re-sharded checkpoint state — is this function,
// so such a layout depends only on the ordered list and p.
func Deal[T any](items []T, p int) [][]T {
	out := make([][]T, p)
	for i, it := range items {
		out[i%p] = append(out[i%p], it)
	}
	return out
}

// DealPairs is Deal by mate pair: items 2j and 2j+1 go together to rank
// j % p (a trailing unpaired item is dropped). It is the layout of every
// in-memory read library; pipeline's globalFromPairDeal is its inverse.
func DealPairs[T any](items []T, p int) [][]T {
	out := make([][]T, p)
	for i := 0; i+1 < len(items); i += 2 {
		r := (i / 2) % p
		out[r] = append(out[r], items[i], items[i+1])
	}
	return out
}

// PhaseStats reports the time consumed by one Run phase.
type PhaseStats struct {
	// Virtual is the modelled critical-path duration of the phase.
	Virtual time.Duration
	// Wall is the physical wall-clock duration (informational only).
	Wall time.Duration
	// Comm is the phase's aggregate communication delta over all ranks.
	Comm CommStats
}

// Run executes fn as an SPMD region: one invocation per rank, concurrently.
// On return, all rank clocks are synchronized to the phase maximum and the
// phase's virtual duration and communication delta are reported.
func (t *Team) Run(fn func(r *Rank)) PhaseStats {
	return t.phase(func() {
		var wg sync.WaitGroup
		wg.Add(len(t.ranks))
		for _, r := range t.ranks {
			go func(r *Rank) {
				defer wg.Done()
				if t.mayTrip() {
					defer recoverFaultCrash()
				}
				r.PerturbPoint(PerturbStart)
				fn(r)
			}(r)
		}
		wg.Wait()
	})
}

// phase brackets one phase body, however it schedules the ranks (Run,
// RunEvents): a dead team panics with its typed error before and after,
// a live one leaves with its clocks synchronized.
func (t *Team) phase(body func()) PhaseStats {
	if t.faultTripped.Load() {
		// The team already died; running another phase on it would hang
		// on the poisoned barrier. Surface the same typed error.
		panic(t.tripErr)
	}
	before := t.AggStats()
	start := t.maxClock()
	wall := time.Now()
	body()
	if t.faultTripped.Load() {
		panic(t.tripErr)
	}
	t.syncClocks()
	return PhaseStats{
		Virtual: time.Duration(t.maxClock() - start),
		Wall:    time.Since(wall),
		Comm:    t.AggStats().Sub(before),
	}
}

func (t *Team) maxClock() int64 {
	var m int64
	for _, r := range t.ranks {
		if c := r.clock(); c > m {
			m = c
		}
	}
	return m
}

func (t *Team) syncClocks() {
	for _, r := range t.ranks {
		r.foldForeign()
	}
	m := t.maxClock()
	for _, r := range t.ranks {
		r.clockNs = m
	}
}

// VirtualNow returns the current synchronized virtual time of the team.
// Only meaningful between Run phases.
func (t *Team) VirtualNow() time.Duration { return time.Duration(t.maxClock()) }

// TripVirtual returns the recorded trip's virtual clock — the tripping
// rank's own, at the instant its injected crash or retry exhaustion killed
// the team — and 0 if the team never tripped. After a trip this is the
// deterministic measure of how long the team held the machine: VirtualNow
// would also include however far the surviving ranks happened to run
// before observing the unwind, which varies with physical scheduling.
func (t *Team) TripVirtual() time.Duration {
	if !t.faultTripped.Load() {
		return 0
	}
	return time.Duration(t.tripClockNs)
}

// AggStats sums communication statistics over all ranks. Only safe between
// phases or at barriers.
func (t *Team) AggStats() CommStats {
	var s CommStats
	for _, r := range t.ranks {
		s.Add(r.stats)
	}
	return s
}

// RankStats returns a copy of one rank's statistics.
func (t *Team) RankStats(id int) CommStats { return t.ranks[id].stats }

// RankWorkNs returns one rank's cumulative charged work, including
// foreign charges folded in at synchronization points. Unlike a clock it
// is never raised by barrier synchronization, so deltas of it across a
// span measure the rank's own busy time — the per-rank quantity
// load-imbalance statistics are computed from. Only safe between phases.
func (t *Team) RankWorkNs(id int) int64 { return t.ranks[id].workNs }

// Barrier blocks until every rank has arrived, then synchronizes all
// virtual clocks to the maximum, as a real barrier would. Under an
// armed perturbation the arrival is preceded by a deterministic delay,
// reordering which rank arrives last (and thus runs barrier epilogues).
func (r *Rank) Barrier() {
	r.PerturbPoint(PerturbBarrier)
	r.team.bar.await(func() { r.team.syncClocks() })
}

// Ordered runs body on the calling rank once every lower rank has left its
// own Ordered call, and lets rank ID+1 in when body returns: a serial
// reduction in rank order — the order that makes a non-commutative fold
// reproducible — whose steps overlap with whatever the ranks still outside
// are doing. Every rank of the phase must call it, once per section; a
// team may run any number of sections one after another.
//
// It orders physical execution and nothing else: no charge, no clock
// synchronization and no perturbation point, so virtual time cannot tell a
// phase that uses it from one that folds after the join. A rank that dies
// before its turn strands nobody — waiters are released with the crash
// panic of a poisoned Barrier.
func (r *Rank) Ordered(body func()) {
	r.AwaitOrdered(r.ID)
	body()
	r.ordered++
	r.team.bar.leaveOrdered()
}

// AwaitOrdered blocks until the ordered section before the one the calling
// rank enters next is over and at least n ranks have left that next one:
// the gate that bounds how far ahead of the fold a rank may run — with
// every rank passing AwaitOrdered(ID−w+1) on its way to Ordered, at most w
// ranks are ever between the two. Like Ordered it is wall-clock only and
// panics out when the team is poisoned.
func (r *Rank) AwaitOrdered(n int) {
	r.team.bar.awaitOrdered(r.ordered*len(r.team.ranks) + max(n, 0))
}

// AllReduceInt64 combines one int64 contribution per rank with op and
// returns the result on every rank. op must be associative and commutative.
func (r *Rank) AllReduceInt64(v int64, op func(a, b int64) int64) int64 {
	t := r.team
	t.sInt[r.ID] = v
	r.Barrier()
	acc := t.sInt[0]
	for i := 1; i < len(t.sInt); i++ {
		acc = op(acc, t.sInt[i])
	}
	r.chargeCollective()
	r.Barrier()
	return acc
}

// AllReduceSum adds one vector per rank element-wise, in rank order, and
// returns the sum on every rank; every rank's vector must have the same
// length, and the returned slice is shared and must be treated as
// read-only. Unlike the one-word collectives it is charged with its bytes:
// each of the log(p) tree steps moves the whole vector off-node.
func (r *Rank) AllReduceSum(v []int64) []int64 {
	t := r.team
	t.sAny[r.ID] = v
	r.Barrier()
	if r.ID == 0 {
		sum := make([]int64, len(v))
		for _, part := range t.sAny {
			for i, x := range part.([]int64) {
				sum[i] += x
			}
		}
		t.sAny[0] = sum
	}
	r.Barrier()
	out := t.sAny[0].([]int64)
	r.chargeTree(8 * len(v))
	r.Barrier()
	return out
}

// AllGather shares one arbitrary value per rank; the returned slice is
// indexed by rank and must be treated as read-only. Every rank receives
// the same contents.
func (r *Rank) AllGather(v any) []any {
	t := r.team
	t.sAny[r.ID] = v
	r.Barrier()
	out := make([]any, len(t.sAny))
	copy(out, t.sAny)
	r.chargeCollective()
	r.Barrier()
	return out
}

// Broadcast returns rank root's value on every rank.
func (r *Rank) Broadcast(root int, v any) any {
	t := r.team
	if r.ID == root {
		t.sAny[root] = v
	}
	r.Barrier()
	out := t.sAny[root]
	r.chargeCollective()
	r.Barrier()
	return out
}

// chargeCollective charges a log(p) latency tree for a small collective.
// On the lossy transport each tree step's control message to the
// step's partner rank runs the reliable-channel protocol.
func (r *Rank) chargeCollective() { r.chargeTree(0) }

// chargeTree charges a log(p) tree whose every step sends one off-node
// message carrying bytes of payload (0: a one-word control message).
func (r *Rank) chargeTree(bytes int) {
	p := r.team.cfg.Ranks
	steps := 0.0
	for n := 1; n < p; n *= 2 {
		r.chaosPoint((r.ID+n)%p, max(bytes, collectiveMsgBytes))
		steps++
	}
	r.ChargeComm(steps * (OffNodeMsgNs + float64(bytes)*OffNodeByteNs))
}

// barrier is a reusable cyclic barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	// poisoned is set by a crashing rank (see fault.go): current waiters
	// are released and every party panics out of await instead of
	// completing, so a dead victim can never deadlock the survivors.
	poisoned bool
	// left counts every departure from an ordered section since the team
	// was created (Rank.Ordered). It shares the barrier's lock and
	// condition variable so that poison releases its waiters too.
	left int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until n parties arrive. onLast runs once, under the barrier
// lock, in the last arriver before anyone is released.
func (b *barrier) await(onLast func()) {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		panic(faultCrash{})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		if onLast != nil {
			onLast()
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	// A waiter the barrier released before it was poisoned passed it, even
	// if it wakes afterwards: only a stranded one unwinds here.
	stranded := gen == b.gen
	b.mu.Unlock()
	if stranded {
		panic(faultCrash{})
	}
}

// awaitOrdered blocks until left reaches n.
func (b *barrier) awaitOrdered(n int) {
	b.mu.Lock()
	for b.left < n && !b.poisoned {
		b.cond.Wait()
	}
	stranded := b.left < n
	b.mu.Unlock()
	if stranded {
		panic(faultCrash{})
	}
}

func (b *barrier) leaveOrdered() {
	b.mu.Lock()
	b.left++
	b.cond.Broadcast()
	b.mu.Unlock()
}

// poison releases every current and future waiter with a crash panic.
func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

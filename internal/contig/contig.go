// Package contig implements stage 2 of the pipeline: construction of the
// de Bruijn graph of UU k-mers in a distributed hash table and its
// parallel traversal into contigs (paper §2.2, §3.2, and the SC'14 prior
// work it builds on). Ranks pick seed k-mers from their local buckets and
// speculatively grow subcontigs in both directions, claiming each k-mer
// through a remote atomic. When two walks meet on the same chain the
// younger (higher-id) walk aborts and releases its claims while the older
// walk waits for the release and proceeds — the lightweight synchronization
// scheme that avoids races without global locking. The ranks' claims are
// resolved in virtual-time order (xrt.RunEvents), so who wins a walk, what
// a loser wastes and how long the phase takes follow from the input alone.
//
// The package also builds the §3.2 oracle partitioning function from a
// previous assembly's contigs, which makes traversal lookups
// overwhelmingly rank-local for same-species genomes.
package contig

import (
	"sort"

	"hipmer/internal/dht"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// Options configures contig generation.
type Options struct {
	// K must be odd (odd k-mers cannot be reverse-complement palindromes,
	// which would create self-loops in the graph). Defaults to 31.
	K int
	// Oracle, when non-nil, places graph k-mers with the
	// communication-avoiding layout instead of uniform hashing.
	Oracle *dht.Oracle
	// AggBufSize overrides the aggregating-stores buffer size.
	AggBufSize int
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 31
	}
	if o.K%2 == 0 {
		panic("contig: K must be odd")
	}
	return o
}

// Termination reasons for a contig end.
const (
	TermNone     byte = 'X' // no supported k-mer beyond this end
	TermFork     byte = 'F' // branch: junction k-mer with forked extensions
	TermNonRecip byte = 'R' // neighbor does not uniquely point back
	TermCycle    byte = 'C' // walk closed a cycle
)

// Node is the graph value per canonical UU k-mer.
type Node struct {
	ExtL, ExtR byte
	Count      uint32
	Walk       int64 // 0 = unclaimed, otherwise owning walk id
	Contig     int64 // 1-based contig id after marking, 0 = unset
}

// Contig is one uncontested linear chain of the de Bruijn graph.
type Contig struct {
	ID           int64
	Seq          []byte
	TermL, TermR byte
	// NbrL/NbrR are the canonical k-mers just beyond each end when the
	// walk terminated at an existing but non-traversable k-mer (fork or
	// non-reciprocal neighbor). The bubble module joins contigs that share
	// these junction k-mers. Valid when HasNbrL/HasNbrR.
	NbrL, NbrR       kmer.Kmer
	HasNbrL, HasNbrR bool
	// SumCount is the sum of member k-mer counts; mean depth is
	// SumCount / (len(Seq)-k+1).
	SumCount uint64
	// PseudoWeight is the depth-derived weight this contig's k-mers carry
	// when it is fed into the next iterative-k round as a pseudo-read.
	// Zero until the contig first passes through MergeRounds.
	PseudoWeight uint32
}

// Depth returns the mean k-mer depth of the contig.
func (c *Contig) Depth(k int) float64 {
	n := len(c.Seq) - k + 1
	if n <= 0 {
		return 0
	}
	return float64(c.SumCount) / float64(n)
}

// Result carries the outputs of contig generation.
type Result struct {
	// Graph is the de Bruijn graph: canonical UU k-mer → Node, with each
	// node's Contig field set after traversal. It is returned frozen
	// (read-only); callers needing to mutate it must Thaw first.
	Graph *dht.Table[kmer.Kmer, Node]
	// Contigs holds the completed contigs dealt round-robin by ID (global
	// IDs are contiguous from 1): the one placement rule for contigs, see
	// ResultFromContigs.
	Contigs [][]*Contig
	// NumContigs is the global contig count.
	NumContigs int64
	// UUKmers is the number of vertices in the graph.
	UUKmers int64
	// Claimed counts walks that successfully claimed a seed; every such
	// walk either completes a contig or aborts, so
	// Claimed == Completed + Aborted always holds (pinned by test).
	Claimed int64
	// Completed counts walks that finished a contig.
	Completed int64
	// Aborted counts walks that lost a conflict and were retried.
	Aborted int64
	// Rounds is the maximum number of quiescence rounds any rank ran.
	Rounds int64
	// BuildPhase and TraversePhase report virtual time and communication.
	BuildPhase, TraversePhase xrt.PhaseStats
}

// All returns all contigs in global-ID order.
func (r *Result) All() []*Contig {
	var out []*Contig
	for _, cs := range r.Contigs {
		out = append(out, cs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func graphHash(km kmer.Kmer) uint64 { return km.Hash(0xdeb41) }

// Run builds the UU de Bruijn graph from the k-mer analysis table and
// traverses it into contigs.
func Run(team *xrt.Team, kt *dht.Table[kmer.Kmer, kanalysis.KmerData], opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}

	// UU k-mers are a subset of the k-mer table — most of it — so its
	// entry count is the graph's size hint.
	gOpt := dht.Options[kmer.Kmer]{
		Hash:          graphHash,
		ItemBytes:     16 + 8,
		AggBufSize:    opt.AggBufSize,
		ExpectedItems: kt.Len(),
	}
	if opt.Oracle != nil {
		gOpt.Place = opt.Oracle.Place
	}
	graph := dht.New[kmer.Kmer, Node](team, gOpt, nil)
	res.Graph = graph

	// --- graph construction: project UU k-mers out of the k-mer table ---
	team.BeginSpan("graph-build")
	res.BuildPhase = team.Run(func(r *xrt.Rank) {
		// In rank order: a shard's slot order — the order its owner later
		// tries seeds in — depends on the order stores reach it.
		r.Ordered(func() {
			kt.LocalRange(r, func(km kmer.Kmer, d kanalysis.KmerData) bool {
				if d.IsUU() {
					graph.Put(r, km, Node{ExtL: d.ExtL, ExtR: d.ExtR, Count: d.Count})
				}
				return true
			})
			graph.Flush(r)
		})
		r.Barrier()
		n := graph.GlobalLen(r)
		if r.ID == 0 {
			res.UUKmers = n
		}
	})
	team.EndSpan()

	// --- parallel traversal ---------------------------------------------
	team.BeginSpan("traverse")
	tr := newTraverser(team, res, kt, opt.K)
	res.TraversePhase = team.RunEvents(tr.step)
	// Speculative-traversal outcome counters: claims = wins + aborts.
	team.AddCounter("walks_claimed", res.Claimed)
	team.AddCounter("walks_completed", res.Completed)
	team.AddCounter("walks_aborted", res.Aborted)
	team.AddCounter("quiescence_rounds", res.Rounds)
	team.EndSpan()

	// --- global contig IDs + k-mer marking -------------------------------
	// IDs are assigned by sorting content hashes of the canonical contig
	// sequences, so numbering is deterministic regardless of which rank's
	// walk produced a contig or in what order walks completed.
	// The apply hook updates only the Contig field so node data survives.
	graph.SetApply(func(_, _ int, _ uint64, _ kmer.Kmer, in Node, e dht.Entry[kmer.Kmer, Node]) {
		if n := e.Get(); n != nil {
			n.Contig = in.Contig
		}
	})
	team.BeginSpan("assign-ids")
	team.Run(func(r *xrt.Rank) {
		mine := tr.walkers[r.ID].out // a contig is numbered and marked by the rank that walked it
		keys := make([]contigKey, len(mine))
		for i, c := range mine {
			keys[i] = keyOf(c.Seq)
		}
		gathered := r.AllGather(keys)
		var all []contigKey
		for _, g := range gathered {
			all = append(all, g.([]contigKey)...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].h1 != all[j].h1 {
				return all[i].h1 < all[j].h1
			}
			return all[i].h2 < all[j].h2
		})
		idOf := make(map[contigKey]int64, len(all))
		for i, k := range all {
			idOf[k] = int64(i) + 1
		}
		for i, c := range mine {
			c.ID = idOf[keys[i]]
		}
		if r.ID == 0 {
			res.NumContigs = int64(len(all))
		}
		// mark each member k-mer with its contig id (aggregated stores)
		for _, c := range mine {
			id := c.ID
			kmer.ForEachCanonical(c.Seq, opt.K, func(_ int, canon kmer.Kmer, _ bool) {
				graph.Put(r, canon, Node{Contig: id})
			})
		}
		graph.Flush(r)
		r.Barrier()

		// contig generation is done mutating the graph; downstream
		// consumers (validation, output) only read — publish it frozen.
		graph.Freeze(r)
	})
	team.EndSpan()
	graph.SetApply(nil)
	// Who won a walk decides nothing downstream: contigs are dealt by ID.
	for i := range tr.walkers {
		res.Contigs = append(res.Contigs, tr.walkers[i].out)
	}
	res.Contigs = ResultFromContigs(team, res.All()).Contigs
	team.AddCounter("uu_kmers", res.UUKmers)
	team.AddCounter("contigs", res.NumContigs)
	return res
}

// traverser is the traversal phase: the graph, one resumable walker per
// rank, and what the walkers share — res takes the outcome counters. It
// runs under xrt.RunEvents — one goroutine, steps in (clock, rank) order —
// so nothing here is atomic.
type traverser struct {
	res     *Result
	graph   *dht.Table[kmer.Kmer, Node]
	kt      *dht.Table[kmer.Kmer, kanalysis.KmerData]
	k       int
	walkers []walker
	// walks numbers the walks in the order their seeds are tried, which
	// under RunEvents is (start clock, rank) order: the lower id is the
	// older walk.
	walks int64
	// waiters lists, per vertex, the ranks whose older walk is parked on a
	// newer walk's claim of it.
	waiters map[kmer.Kmer][]int
}

func newTraverser(team *xrt.Team, res *Result, kt *dht.Table[kmer.Kmer, kanalysis.KmerData], k int) *traverser {
	return &traverser{res: res, graph: res.Graph, kt: kt, k: k,
		walkers: make([]walker, team.Config().Ranks), waiters: make(map[kmer.Kmer][]int)}
}

// What a walker's next step does.
const (
	atScan    = iota // snapshot the round's seed candidates
	atSeed           // try the next seed; after the last, tally the round
	atExtend         // claim the walk's next vertex
	atRelease        // give back the next claim of an aborted walk
	atReduce         // the round's all-reduce is over: quiescent?
)

// walker is one rank's traversal, suspended between steps: the seed loop
// of a quiescence round and, inside it, the walk in progress.
type walker struct {
	at     int
	round  int
	seeds  []kmer.Kmer
	cursor int // next seed
	out    []*Contig

	id         int64       // the walk in progress
	claimed    []kmer.Kmer // canonical vertices; [0] is the seed, read as stored
	released   int         // claims given back so far
	seedNode   Node
	cur        kmer.Kmer // the walk's end vertex, as the walk reads it,
	extL, extR byte      // and its extensions in that orientation
	dir        int       // 0 extends to the right of the seed, 1 to the left
	bufs       [2][]byte // bases appended in each direction
	endR       walkEnd
	sumCount   uint64
}

// orientedExts returns a node's extension codes as a walk reading it
// reverse-complemented (flipped) or as stored sees them.
func orientedExts(n Node, flipped bool) (extL, extR byte) {
	if !flipped {
		return n.ExtL, n.ExtR
	}
	return compExt(n.ExtR), compExt(n.ExtL)
}

func compExt(e byte) byte {
	if kmer.IsBaseExt(e) {
		return kmer.Complement(e)
	}
	return e
}

// step is one rank's next graph operation and the charges it makes. Per
// quiescence round: scan the local shard for seeds, walk from each, count
// what is still free, all-reduce. In the first round only "locally
// contiguous" seeds are used — vertices with at least one neighbor placed
// on this rank. Under an oracle layout a misplaced (hash-collision) vertex
// is surrounded by remote neighbors; seeding a walk from it would re-walk
// a remote contig and abort, turning one misplaced k-mer into O(contig)
// remote traffic. Deferring such seeds one round lets the owning rank's
// walks claim their chains first, so a misplaced vertex costs O(1) remote
// operations, matching the collision accounting of §3.2.
func (t *traverser) step(ev *xrt.Events, r *xrt.Rank) xrt.Status {
	w := &t.walkers[r.ID]
	switch w.at {
	case atScan:
		// claims mutate the shard, so collect keys first
		w.seeds, w.cursor = w.seeds[:0], 0
		t.graph.LocalRange(r, func(km kmer.Kmer, n Node) bool {
			if n.Walk == 0 && (w.round > 0 || t.locallyContiguous(r, km, n)) {
				w.seeds = append(w.seeds, km)
			}
			return true
		})
		w.at = atSeed
	case atSeed:
		if w.cursor == len(w.seeds) {
			// Quiescence: nobody tried a seed and no free vertices remain.
			// (A seed that was taken counts too: claims changed state, so
			// another round may be needed.)
			tally := int64(len(w.seeds))
			t.graph.LocalRange(r, func(km kmer.Kmer, n Node) bool {
				if n.Walk == 0 {
					tally++
				}
				return true
			})
			w.at = atReduce
			return ev.AllReduceSum(tally)
		}
		seed := w.seeds[w.cursor]
		w.cursor++
		t.walks++
		if n := t.graph.Ref(r, seed); n != nil && n.Walk == 0 {
			n.Walk = t.walks
			t.res.Claimed++
			w.id, w.seedNode, w.claimed = t.walks, *n, append(w.claimed[:0], seed)
			w.cur, w.extL, w.extR, w.dir = seed, n.ExtL, n.ExtR, 0
			w.bufs[0], w.bufs[1] = w.bufs[0][:0], w.bufs[1][:0]
			w.sumCount = uint64(n.Count)
			w.at = atExtend
		}
	case atExtend:
		return t.extend(r, w)
	case atRelease:
		v := w.claimed[w.released]
		w.released++
		if n := t.graph.Ref(r, v); n != nil && n.Walk == w.id {
			n.Walk = 0
		}
		// older walks parked on this claim resume at this rank's clock
		if ids, ok := t.waiters[v]; ok {
			delete(t.waiters, v)
			for _, id := range ids {
				ev.Wake(id)
			}
		}
		if w.released == len(w.claimed) {
			t.res.Aborted++
			w.at = atSeed
		}
	case atReduce:
		if ev.Sum() == 0 && w.round > 0 {
			t.res.Rounds = max(t.res.Rounds, int64(w.round))
			return xrt.Done
		}
		w.round++
		w.at = atScan
	}
	return xrt.Ready
}

// locallyContiguous reports whether a vertex has a neighbor whose home is
// this rank. Owner computation is pure hashing — no communication.
func (t *traverser) locallyContiguous(r *xrt.Rank, km kmer.Kmer, n Node) bool {
	isolated := true
	for dir, ext := range [2]byte{n.ExtR, n.ExtL} { // canonical orientation
		if !kmer.IsBaseExt(ext) {
			continue
		}
		isolated = false
		if canon, _ := t.neighbor(km, dir, ext).Canonical(t.k); t.graph.Owner(canon) == r.ID {
			return true
		}
	}
	// isolated vertices (no base extensions) are their own contigs; seed
	// them immediately
	return isolated
}

// neighbor returns the k-mer one base to the right (dir 0) or left (dir 1)
// of km along its extension ext.
func (t *traverser) neighbor(km kmer.Kmer, dir int, ext byte) kmer.Kmer {
	code, _ := kmer.BaseCode(ext)
	if dir == 0 {
		return km.NextRight(t.k, code)
	}
	return km.NextLeft(t.k, code)
}

// walkEnd describes how and where one direction of a walk terminated.
type walkEnd struct {
	term   byte
	nbr    kmer.Kmer
	hasNbr bool
}

// extend tries to grow w's walk by one vertex in its current direction —
// right of the seed first, then left. The claim resolves conflicts by
// wait-or-abort: the walk with the lower id has priority; the newer walk
// aborts so the older can pass through (the paper's lightweight
// synchronization scheme).
func (t *traverser) extend(r *xrt.Rank, w *walker) xrt.Status {
	k := t.k
	ext := [2]byte{w.extR, w.extL}[w.dir]
	switch ext {
	case kmer.ExtFork:
		t.endDirection(w, walkEnd{term: TermFork})
		return xrt.Ready
	case kmer.ExtNone:
		t.endDirection(w, walkEnd{term: TermNone})
		return xrt.Ready
	}
	next := t.neighbor(w.cur, w.dir, ext)
	canon, flipped := next.Canonical(k)

	n := t.graph.Ref(r, canon) // one remote atomic decides the claim
	if n == nil {
		// Neighbor is not a UU graph vertex; classify the end by
		// consulting the full k-mer table: a surviving k-mer with a
		// forked side is a true branch point (the bubble module
		// uses these junctions), an absent one is a dead end.
		end := walkEnd{term: TermNone}
		if d, ok := t.kt.Get(r, canon); ok {
			end.nbr, end.hasNbr = canon, true
			if d.ExtL == kmer.ExtFork || d.ExtR == kmer.ExtFork {
				end.term = TermFork
			}
		}
		t.endDirection(w, end)
		return xrt.Ready
	}
	// Reciprocity first: the neighbor must uniquely point back at us; a
	// vertex that does not is a boundary of another contig and must never
	// be claimed.
	nExtL, nExtR := orientedExts(*n, flipped)
	back, wantBase := nExtL, w.cur.Base(0)
	if w.dir == 1 {
		back, wantBase = nExtR, w.cur.Base(k-1)
	}
	switch {
	case !kmer.IsBaseExt(back) || back != kmer.CodeBase(wantBase):
		t.endDirection(w, walkEnd{term: TermNonRecip, nbr: canon, hasNbr: true})
	case n.Walk == 0:
		n.Walk = w.id
		w.cur, w.extL, w.extR = next, nExtL, nExtR
		w.claimed = append(w.claimed, canon)
		w.bufs[w.dir] = append(w.bufs[w.dir], ext)
		w.sumCount += uint64(n.Count)
	case n.Walk == w.id:
		t.endDirection(w, walkEnd{term: TermCycle})
	case n.Walk < w.id:
		w.at, w.released = atRelease, 0 // abort: the older walk has priority
	default:
		// The newer walk will abort when it reaches our claims; its
		// release of this vertex wakes us to claim it again.
		t.waiters[canon] = append(t.waiters[canon], r.ID)
		return xrt.Parked
	}
	return xrt.Ready
}

// endDirection records how the walk's current direction terminated: the
// right end turns the walk around at its seed, unless it closed a cycle;
// the left end (or the cycle) completes the contig.
func (t *traverser) endDirection(w *walker, end walkEnd) {
	if w.dir == 0 && end.term != TermCycle {
		w.endR, w.dir = end, 1
		w.cur, w.extL, w.extR = w.claimed[0], w.seedNode.ExtL, w.seedNode.ExtR
		return
	}
	endR, endL := w.endR, end
	if w.dir == 0 {
		endR = end
	}
	k, right, left := t.k, w.bufs[0], w.bufs[1]
	// assemble sequence: reverse(left) + seed + right
	seq := make([]byte, 0, len(left)+k+len(right))
	for i := len(left) - 1; i >= 0; i-- {
		seq = append(seq, left[i])
	}
	seq = w.claimed[0].Append(seq, k)
	seq = append(seq, right...)
	c := &Contig{
		Seq: seq, SumCount: w.sumCount,
		TermL: endL.term, NbrL: endL.nbr, HasNbrL: endL.hasNbr,
		TermR: endR.term, NbrR: endR.nbr, HasNbrR: endR.hasNbr,
	}
	// Canonicalize the stored orientation so output is independent of
	// which seed and direction happened to win the walk.
	if rc := kmer.RevCompString(seq); string(rc) < string(seq) {
		c.Seq = rc
		c.TermL, c.TermR = c.TermR, c.TermL
		c.NbrL, c.NbrR = c.NbrR, c.NbrL
		c.HasNbrL, c.HasNbrR = c.HasNbrR, c.HasNbrL
	}
	w.out = append(w.out, c)
	t.res.Completed++
	w.at = atSeed
}

// contigKey is a 128-bit content hash of a contig's canonical sequence,
// used for deterministic global numbering.
type contigKey struct {
	h1, h2 uint64
}

func keyOf(seq []byte) contigKey {
	rc := kmer.RevCompString(seq)
	s := seq
	if string(rc) < string(s) {
		s = rc
	}
	h1 := uint64(14695981039346656037)
	h2 := uint64(0x9e3779b97f4a7c15)
	for _, b := range s {
		h1 = (h1 ^ uint64(b)) * 1099511628211
		h2 = (h2 + uint64(b)) * 0xff51afd7ed558ccd
		h2 ^= h2 >> 33
	}
	return contigKey{h1, h2}
}

// BuildOracle constructs the §3.2 oracle partitioning vector from an
// existing assembly: contigs are dealt to ranks cyclically and every
// member k-mer's hash slot records the contig's rank. Collisions keep the
// first assignment.
func BuildOracle(contigs []*Contig, k, ranks, slots int) *dht.Oracle {
	o := dht.NewOracle(slots, ranks)
	for i, c := range contigs {
		rank := i % ranks
		kmer.ForEach(c.Seq, k, func(_ int, km kmer.Kmer) {
			canon, _ := km.Canonical(k)
			o.Assign(graphHash(canon), rank)
		})
	}
	return o
}

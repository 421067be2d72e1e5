// Package contig implements stage 2 of the pipeline: construction of the
// de Bruijn graph of UU k-mers in a distributed hash table and its
// parallel traversal into contigs (paper §2.2, §3.2, and the SC'14 prior
// work it builds on). The graph is placed as the k-mer table is, so every
// vertex stays on the rank k-mer analysis gave it and each rank builds its
// shard from its own k-mers, sending nothing. Ranks pick seed k-mers from
// their local buckets and speculatively grow walks in both directions. A
// walk proceeds in runs: its request reaches the owner of its next vertex,
// which claims vertices while the next one is its own, so consecutive
// vertices sharing a minimizer — and so an owner — cost one exchange
// between them, not one remote atomic each. A claim is never given back: a
// walk that meets another walk's claim ends that direction with a link to
// it, and once every vertex is claimed the linked fragments of a chain are
// stitched into the contig one walk would have produced. The ranks' claims
// are resolved in virtual-time order (xrt.RunEvents), so who claims which
// vertex, where a chain is cut and how long the phase takes follow from
// the input alone.
//
// The package also builds the §3.2 oracle partitioning function from a
// previous assembly's contigs. That path exists for the §3.2 exhibits,
// which measure it against uniform hashing, the paper's baseline; no
// product entry point builds one.
package contig

import (
	"math/bits"
	"slices"
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
	// Oracle, when non-nil, places graph k-mers with the §3.2 layout
	// instead of the k-mer table's placement; a vector with no slot
	// assigned is uniform hashing, the paper's baseline. It exists for the
	// §3.2 exhibits, which measure one against the other; no product entry
	// point sets it.
	Oracle *dht.Oracle
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
}

// nodeBytes is the wire size of one graph vertex: its k-mer and its node.
const nodeBytes = 16 + 8

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
	// Graph is the de Bruijn graph: canonical UU k-mer → Node, placed as
	// the k-mer table it was projected from (or by the oracle). It is
	// returned frozen (read-only); callers needing to mutate it must Thaw
	// first.
	Graph *dht.Table[kmer.Kmer, Node]
	// Contigs holds the completed contigs dealt round-robin by ID (global
	// IDs are contiguous from 1): the one placement rule for contigs, see
	// ResultFromContigs.
	Contigs [][]*Contig
	// NumContigs is the global contig count.
	NumContigs int64
	// UUKmers is the number of vertices in the graph.
	UUKmers int64
	// Claimed counts walks that successfully claimed a seed; no walk gives
	// its claims back, so Claimed == Completed always holds (pinned by
	// test).
	Claimed int64
	// Completed counts walks that finished, as a contig or as a fragment
	// of one.
	Completed int64
	// Aborted is always 0: no walk aborts. It stays for the benchmark
	// harness, which reads it.
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
	res := buildGraph(team, kt, opt)

	// --- parallel traversal ---------------------------------------------
	team.BeginSpan("traverse")
	tr := newTraverser(team, res, kt, opt.K, opt.Oracle == nil)
	res.TraversePhase = team.RunEvents(tr.step)
	// Speculative-traversal outcome counters: claims = completed walks.
	team.AddCounter("walks_claimed", res.Claimed)
	team.AddCounter("walks_completed", res.Completed)
	team.AddCounter("quiescence_rounds", res.Rounds)
	team.AddCounter("owner_runs", tr.runs)
	team.BeginSpan("stitch")
	team.AddCounter("walks_linked", tr.stitch(team))
	team.EndSpan()
	team.EndSpan()

	// --- global contig IDs ----------------------------------------------
	// IDs are assigned by sorting content hashes of the canonical contig
	// sequences, so numbering is deterministic regardless of which rank's
	// walk produced a contig or in what order walks completed.
	team.BeginSpan("assign-ids")
	team.Run(func(r *xrt.Rank) {
		mine := tr.walkers[r.ID].out // a contig is numbered by the rank that walked it
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
		// contig generation is done mutating the graph; downstream
		// consumers (validation, output) only read — publish it frozen.
		res.Graph.Freeze(r)
	})
	team.EndSpan()
	// Who walked a contig decides nothing downstream: contigs are dealt by ID.
	for i := range tr.walkers {
		res.Contigs = append(res.Contigs, tr.walkers[i].out)
	}
	res.Contigs = ResultFromContigs(team, res.All()).Contigs
	team.AddCounter("uu_kmers", res.UUKmers)
	team.AddCounter("contigs", res.NumContigs)
	return res
}

// buildGraph projects the UU k-mers of kt into the graph: the Result's
// Graph, UUKmers and BuildPhase. UU k-mers are a subset of the k-mer table
// — most of it — so its entry count is the graph's size hint. Without an
// oracle the graph is placed as the k-mer table is: every vertex stays on
// the rank k-mer analysis gave it, and a walk's consecutive vertices, which
// mostly share a minimizer, mostly share an owner.
func buildGraph(team *xrt.Team, kt *dht.Table[kmer.Kmer, kanalysis.KmerData], opt Options) *Result {
	res := &Result{}
	gOpt := dht.Options[kmer.Kmer]{
		Hash:          graphHash,
		ItemBytes:     nodeBytes,
		ExpectedItems: kt.Len(),
	}
	if opt.Oracle != nil {
		gOpt.Place = opt.Oracle.Place
	} else {
		gOpt = kt.SamePlacement(gOpt)
	}
	graph := dht.New[kmer.Kmer, Node](team, gOpt, nil)
	res.Graph = graph

	team.BeginSpan("graph-build")
	res.BuildPhase = team.Run(func(r *xrt.Rank) {
		if opt.Oracle != nil {
			// The oracle places vertices away from their k-mers: stores, in
			// rank order, since a shard's slot order — the order its owner
			// later tries seeds in — depends on the order stores reach it.
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
		} else {
			// Co-located: each rank projects its own k-mer shard into its
			// own graph shard, no message sent.
			uu := 0
			graph.OwnShard(r, func(own dht.Owned[kmer.Kmer, Node]) {
				kt.LocalRange(r, func(km kmer.Kmer, d kanalysis.KmerData) bool {
					if d.IsUU() {
						n, _ := own.Entry(graphHash(km), km).Upsert()
						*n = Node{ExtL: d.ExtL, ExtR: d.ExtR, Count: d.Count}
						uu++
					}
					return true
				})
			})
			r.ChargeStoreBatch(r.ID, uu, uu*nodeBytes)
		}
		n := graph.GlobalLen(r)
		if r.ID == 0 {
			res.UUKmers = n
		}
	})
	team.EndSpan()
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
	// colocated is set when the graph is placed as kt is: a run that
	// finds its next vertex missing from the graph reads the k-mer at the
	// same owner.
	colocated bool
	// walks numbers the walks in the order their seeds are tried, which
	// under RunEvents is (start clock, rank) order: the lower id is the
	// older walk.
	walks int64
	// claimed counts the claims made in each rank's shard, so a shard's
	// free vertices are its length less its claims, no scan needed.
	claimed []int
	// runs counts the owner-side runs the walks made: their exchanges.
	runs int64
}

func newTraverser(team *xrt.Team, res *Result, kt *dht.Table[kmer.Kmer, kanalysis.KmerData], k int, colocated bool) *traverser {
	p := team.Config().Ranks
	t := &traverser{res: res, graph: res.Graph, kt: kt, k: k, colocated: colocated,
		walkers: make([]walker, p), claimed: make([]int, p)}
	for i := range t.walkers {
		t.walkers[i].rank = i
	}
	return t
}

// free returns the number of unclaimed vertices in r's shard.
func (t *traverser) free(r *xrt.Rank) int { return t.graph.LocalLen(r) - t.claimed[r.ID] }

// What a walker's next step does.
const (
	atScan   = iota // snapshot the round's seed candidates
	atSeed          // try the next seed; after the last, tally the round
	atExtend        // claim the walk's next run of vertices at one owner
	atReduce        // the round's all-reduce is over: quiescent?
)

// walker is one rank's traversal, suspended between steps: the seed loop
// of a quiescence round and, inside it, the walk in progress.
type walker struct {
	rank   int
	at     int
	round  int
	seeds  []kmer.Kmer
	cursor int // next seed
	out    []*Contig
	frags  []*fragment // finished walks with a link end, for the stitch

	id         int64     // the walk in progress
	seed       kmer.Kmer // canonical, read as stored
	seedNode   Node
	cur        kmer.Kmer // the walk's end vertex, as the walk reads it,
	extL, extR byte      // and its extensions in that orientation
	dir        int       // 0 extends to the right of the seed, 1 to the left
	owner      int       // where the next vertex is looked for first
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
// what is still free, all-reduce. A seed is the walker's own vertex; a walk
// then proceeds in runs, each one exchange with the owner of its vertices
// (extend). In the first round only "locally contiguous" seeds are used —
// vertices with at least one neighbor placed on this rank. Under an oracle
// layout a misplaced (hash-collision) vertex is surrounded by remote
// neighbors; a walk seeded there would claim its way into its neighbors'
// chain and cut the owner's local walk into remote fragments, each a link
// to stitch. Deferring such seeds one round lets the owning rank's walks
// claim their chains first, so a misplaced vertex costs O(1) remote
// operations, matching the collision accounting of §3.2. The round's tally
// is the seeds tried plus the shard's free count, which equals what a scan
// would find at that instant; a later round with nothing free skips its
// scan.
func (t *traverser) step(ev *xrt.Events, r *xrt.Rank) xrt.Status {
	w := &t.walkers[r.ID]
	switch w.at {
	case atScan:
		// claims mutate the shard, so collect keys first
		w.seeds, w.cursor = w.seeds[:0], 0
		if w.round == 0 || t.free(r) > 0 {
			t.graph.LocalRange(r, func(km kmer.Kmer, n Node) bool {
				if n.Walk == 0 && (w.round > 0 || t.locallyContiguous(r, km, n)) {
					w.seeds = append(w.seeds, km)
				}
				return true
			})
		}
		w.at = atSeed
	case atSeed:
		if w.cursor == len(w.seeds) {
			// Quiescence: nobody tried a seed and no free vertices remain.
			// (A seed that was taken counts too: claims changed state, so
			// another round may be needed.)
			w.at = atReduce
			return ev.AllReduceSum(int64(len(w.seeds) + t.free(r)))
		}
		seed := w.seeds[w.cursor]
		w.cursor++
		t.walks++
		r.ChargeLookup(r.ID, nodeBytes)
		if n := t.graph.RefAt(r.ID, seed); n.Walk == 0 {
			n.Walk = t.walks
			t.claimed[r.ID]++
			t.res.Claimed++
			w.id, w.seed, w.seedNode = t.walks, seed, *n
			w.cur, w.extL, w.extR, w.dir, w.owner = seed, n.ExtL, n.ExtR, 0, r.ID
			w.bufs[0], w.bufs[1] = w.bufs[0][:0], w.bufs[1][:0]
			w.sumCount = uint64(n.Count)
			w.at = atExtend
		}
	case atExtend:
		t.extend(r, w)
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
// this rank: found in the rank's shard, or else placed there. No
// communication, and an owner is computed only for a neighbor the shard
// does not hold.
func (t *traverser) locallyContiguous(r *xrt.Rank, km kmer.Kmer, n Node) bool {
	isolated := true
	for dir, ext := range [2]byte{n.ExtR, n.ExtL} { // canonical orientation
		if !kmer.IsBaseExt(ext) {
			continue
		}
		isolated = false
		if canon, _ := t.neighbor(km, dir, ext).Canonical(t.k); t.graph.RefAt(r.ID, canon) != nil || t.graph.Owner(canon) == r.ID {
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

// walkEnd describes how and where one direction of a walk terminated: a
// true end (term, and the junction neighbor if any), or a link to the walk
// that owns the vertex beyond it (link, and that vertex read in the
// walk's orientation, next).
type walkEnd struct {
	term   byte
	nbr    kmer.Kmer
	hasNbr bool
	link   int64
	next   kmer.Kmer
}

// extend grows w's walk by one run in its current direction — right of
// the seed first, then left: the walk's request reaches the owner of its
// next vertex, which claims vertices while the next one lies in its own
// shard, and the run ends at an owner change, a link or a true end. The
// run is one exchange, billed as one lookup batch of the vertices it
// probed. A vertex is claimed once and never given back: a walk that meets
// another walk's claim ends that direction with a link to it, and the
// stitch joins the two.
func (t *traverser) extend(r *xrt.Rank, w *walker) {
	k, o, items := t.k, w.owner, 0
	var absent kmer.Kmer // a missing vertex whose end kt classifies
	classify := false
run:
	for {
		ext := [2]byte{w.extR, w.extL}[w.dir]
		switch ext {
		case kmer.ExtFork:
			t.endDirection(w, walkEnd{term: TermFork})
			break run
		case kmer.ExtNone:
			t.endDirection(w, walkEnd{term: TermNone})
			break run
		}
		next := t.neighbor(w.cur, w.dir, ext)
		canon, flipped := next.Canonical(k)

		n := t.graph.RefAt(o, canon)
		if n == nil {
			if owner := t.graph.Owner(canon); owner != o {
				// the run goes on at the next owner; when nothing was
				// probed here yet, no exchange with o took place
				w.owner = owner
				if items == 0 {
					o = owner
					continue
				}
				break run
			}
			// not a graph vertex: the end is classified from the k-mer
			// table, at o when the tables share a placement (one more item)
			items++
			if t.colocated {
				items++
			}
			absent, classify = canon, true
			break run
		}
		items++
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
			t.claimed[o]++
			w.cur, w.extL, w.extR = next, nExtL, nExtR
			w.bufs[w.dir] = append(w.bufs[w.dir], ext)
			w.sumCount += uint64(n.Count)
			continue
		case n.Walk != w.id:
			t.endDirection(w, walkEnd{link: n.Walk, next: next})
		case canon == w.seed && !flipped:
			// back at the seed as read: the walk closed a cycle
			ring := walkEnd{term: TermCycle}
			t.finish(w, ring, ring, true)
		default:
			// Any other own claim is the walk's own vertex read on the other
			// strand — the fold of an inverted repeat: this direction ends.
			t.endDirection(w, walkEnd{term: TermCycle})
		}
		break run
	}
	if items > 0 {
		t.runs++
		r.ChargeLookupBatch(o, items, items*nodeBytes)
	}
	if classify {
		t.endDirection(w, t.endBefore(r, o, absent))
	}
}

// endBefore classifies the end of a walk whose next k-mer km, owned by o,
// is not a graph vertex, by consulting the full k-mer table: a surviving
// k-mer with a forked side is a true branch point (the bubble module uses
// these junctions), an absent one is a dead end. The table is read at o
// when it shares the graph's placement — the run billed it — and with a
// lookup of the walker's own otherwise.
func (t *traverser) endBefore(r *xrt.Rank, o int, km kmer.Kmer) walkEnd {
	var d kanalysis.KmerData
	var found bool
	if t.colocated {
		d, found = t.kt.GetAt(o, km)
	} else {
		d, found = t.kt.Get(r, km)
	}
	end := walkEnd{term: TermNone}
	if found {
		end.nbr, end.hasNbr = km, true
		if d.ExtL == kmer.ExtFork || d.ExtR == kmer.ExtFork {
			end.term = TermFork
		}
	}
	return end
}

// endDirection records how the walk's current direction terminated: the
// right end turns the walk around at its seed, the left end finishes it.
func (t *traverser) endDirection(w *walker, end walkEnd) {
	if w.dir == 0 {
		w.endR, w.dir, w.owner = end, 1, w.rank
		w.cur, w.extL, w.extR = w.seed, w.seedNode.ExtL, w.seedNode.ExtR
		return
	}
	t.finish(w, end, w.endR, false)
}

// finish completes w's walk with the given ends: a contig when both are
// true ends, otherwise a fragment for the stitch.
func (t *traverser) finish(w *walker, endL, endR walkEnd, ring bool) {
	k, right, left := t.k, w.bufs[0], w.bufs[1]
	// assemble sequence: reverse(left) + seed + right
	seq := make([]byte, 0, len(left)+k+len(right))
	for i := len(left) - 1; i >= 0; i-- {
		seq = append(seq, left[i])
	}
	seq = w.seed.Append(seq, k)
	seq = append(seq, right...)
	t.res.Completed++
	w.at = atSeed
	if endL.link == 0 && endR.link == 0 {
		w.out = append(w.out, newContig(seq, w.sumCount, endL, endR, ring, k))
		return
	}
	first, _ := kmer.Pack(seq, k)
	last, _ := kmer.Pack(seq[len(seq)-k:], k)
	w.frags = append(w.frags, &fragment{walk: w.id, seq: seq, first: first, last: last,
		sumCount: w.sumCount, ends: [2]walkEnd{endL, endR}})
}

// newContig stores a finished chain so that its bytes do not depend on
// which seeds and directions the walks took: a linear chain in the
// orientation whose sequence is the smaller of it and its reverse
// complement, a ring read from its least canonical k-mer as stored.
func newContig(seq []byte, sumCount uint64, endL, endR walkEnd, ring bool, k int) *Contig {
	if ring {
		return &Contig{Seq: leastRotation(seq, k), SumCount: sumCount, TermL: TermCycle, TermR: TermCycle}
	}
	if rc := kmer.RevCompString(seq); string(rc) < string(seq) {
		seq, endL, endR = rc, endR, endL
	}
	return &Contig{
		Seq: seq, SumCount: sumCount,
		TermL: endL.term, NbrL: endL.nbr, HasNbrL: endL.hasNbr,
		TermR: endR.term, NbrR: endR.nbr, HasNbrR: endR.hasNbr,
	}
}

// leastRotation returns a ring — seq spells its n k-mers once, its last
// k-1 bases repeating its first — rotated, and reverse-complemented if
// need be, to start at its least canonical k-mer read as stored.
func leastRotation(seq []byte, k int) []byte {
	n := len(seq) - k + 1
	var least kmer.Kmer
	at, flip := -1, false
	kmer.ForEachCanonical(seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
		if at < 0 || canon.Less(least) {
			least, at, flip = canon, pos, flipped
		}
	})
	if flip {
		seq, at = kmer.RevCompString(seq), n-1-at
	}
	out := append(append(make([]byte, 0, len(seq)), seq[at:n]...), seq[:at]...)
	for i := 0; len(out) < len(seq); i++ {
		out = append(out, out[i])
	}
	return out
}

// fragment is a walk that ended in a link on at least one side: its
// sequence in the walk's orientation, the k-mers at its two ends as read
// there, and how each end ended.
type fragment struct {
	walk        int64
	rank        int // the rank that walked it
	seq         []byte
	first, last kmer.Kmer
	sumCount    uint64
	ends        [2]walkEnd // left, right
}

// fragHeaderBytes is what the stitch all-gathers per fragment: its walk
// id, rank and length, its first and last k-mer, and its two links.
const fragHeaderBytes = 3*8 + 2*16 + 2*8

// chainStep is a fragment as a chain reads it: as walked, or reverse-
// complemented (rev).
type chainStep struct {
	f   *fragment
	rev bool
}

// endOf returns s's left (side 0) or right (side 1) end as the chain
// reads it.
func (t *traverser) endOf(s chainStep, side int) walkEnd {
	if !s.rev {
		return s.f.ends[side]
	}
	e := s.f.ends[1-side]
	if e.link != 0 {
		e.next = e.next.RevComp(t.k)
	}
	return e
}

// follow returns the fragment a chain continues into beyond s's right
// end, read so that the link's k-mer is its first: as walked if that is
// its first k-mer, reverse-complemented if it is the reverse complement of
// its last. ok is false at a true end.
func (t *traverser) follow(byWalk map[int64]*fragment, s chainStep) (next chainStep, ok bool) {
	e := t.endOf(s, 1)
	if e.link == 0 {
		return chainStep{}, false
	}
	if g := byWalk[e.link]; g != nil {
		switch {
		case g.first == e.next:
			return chainStep{g, false}, true
		case g.last.RevComp(t.k) == e.next:
			return chainStep{g, true}, true
		}
	}
	panic("contig: a link does not meet an end of the walk it names")
}

// chainFrom returns the chain through f, left to right with f read as
// walked, and whether it closes into a ring.
func (t *traverser) chainFrom(byWalk map[int64]*fragment, f *fragment) (chain []chainStep, ring bool) {
	chain = []chainStep{{f, false}}
	for s, ok := t.follow(byWalk, chain[0]); ok; s, ok = t.follow(byWalk, s) {
		if s.f == f {
			return chain, true
		}
		chain = append(chain, s)
	}
	// leftwards is rightwards along the reverse complement, turned back
	var left []chainStep
	for s, ok := t.follow(byWalk, chainStep{f, true}); ok; s, ok = t.follow(byWalk, s) {
		left = append(left, chainStep{s.f, !s.rev})
	}
	slices.Reverse(left)
	return append(left, chain...), false
}

// join spells a chain's contig: its fragments overlapped by k-1 bases,
// their counts summed, its ends the chain's outer ends.
func (t *traverser) join(chain []chainStep, ring bool) *Contig {
	var seq []byte
	var sumCount uint64
	for i, s := range chain {
		part := s.f.seq
		if s.rev {
			part = kmer.RevCompString(part)
		}
		if i > 0 {
			part = part[t.k-1:]
		}
		seq = append(seq, part...)
		sumCount += s.f.sumCount
	}
	return newContig(seq, sumCount, t.endOf(chain[0], 0), t.endOf(chain[len(chain)-1], 1), ring, t.k)
}

// stitch joins the linked fragments into contigs and returns how many it
// joined. Every rank all-gathers the headers of the fragments it walked
// and resolves the chains from them; the rank of a chain's oldest fragment
// fetches the other fragments' sequences, asking each owner once for all
// it needs, and keeps the contig. The chains
// are resolved once, here, for the team; the ranks are charged for it in
// one Team.Run. A run with no links — any run at one rank — charges
// nothing but the header all-gather's latency tree, which is free at one
// rank.
func (t *traverser) stitch(team *xrt.Team) int64 {
	var frags []*fragment
	for id := range t.walkers {
		for _, f := range t.walkers[id].frags {
			f.rank = id
			frags = append(frags, f)
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].walk < frags[j].walk })
	byWalk := make(map[int64]*fragment, len(frags))
	for _, f := range frags {
		byWalk[f.walk] = f
	}
	fetches := make([][]*fragment, len(t.walkers)) // remote fragments each rank assembles
	joined := make(map[int64]bool, len(frags))
	for _, f := range frags { // oldest first: f is its chain's oldest fragment
		if joined[f.walk] {
			continue
		}
		chain, ring := t.chainFrom(byWalk, f)
		for _, s := range chain {
			joined[s.f.walk] = true
			if s.f.rank != f.rank {
				fetches[f.rank] = append(fetches[f.rank], s.f)
			}
		}
		w := &t.walkers[f.rank]
		w.out = append(w.out, t.join(chain, ring))
	}

	team.Run(func(r *xrt.Rank) {
		// the headers: a latency tree whose every step carries all of them,
		// as AllReduceSum charges a vector
		linked := 0
		for _, n := range r.AllGather(len(t.walkers[r.ID].frags)) {
			linked += n.(int)
		}
		steps := bits.Len(uint(r.N() - 1))
		r.ChargeComm(float64(steps*linked*fragHeaderBytes) * xrt.OffNodeByteNs)
		r.ChargeItems(linked) // resolve the chains
		// the fetches are known up front: one batch per owner, in rank order
		n, bytes := make([]int, r.N()), make([]int, r.N())
		for _, f := range fetches[r.ID] {
			n[f.rank]++
			bytes[f.rank] += len(f.seq)
		}
		for owner := range n {
			if n[owner] > 0 {
				r.ChargeLookupBatch(owner, n[owner], bytes[owner])
			}
		}
	})
	return int64(len(frags))
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

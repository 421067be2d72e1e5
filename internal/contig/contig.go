// Package contig implements stage 2 of the pipeline: construction of the
// de Bruijn graph of UU k-mers in a distributed hash table and its
// parallel traversal into contigs (paper §2.2, §3.2, and the SC'14 prior
// work it builds on). Ranks pick seed k-mers from their local buckets and
// speculatively grow subcontigs in both directions, claiming each k-mer
// through a remote atomic. When two walks meet on the same chain the
// younger (higher-id) walk aborts and releases its claims while the older
// walk waits briefly and proceeds — the lightweight synchronization scheme
// that avoids races without global locking.
//
// The package also builds the §3.2 oracle partitioning function from a
// previous assembly's contigs, which makes traversal lookups
// overwhelmingly rank-local for same-species genomes.
package contig

import (
	"runtime"
	"sort"
	"sync/atomic"

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
	// Contigs holds the completed contigs per generating rank; global IDs
	// are contiguous from 1 and sorted within each rank.
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
		kt.LocalRange(r, func(km kmer.Kmer, d kanalysis.KmerData) bool {
			if d.IsUU() {
				graph.Put(r, km, Node{ExtL: d.ExtL, ExtR: d.ExtR, Count: d.Count})
			}
			return true
		})
		graph.Flush(r)
		r.Barrier()
		n := graph.GlobalLen(r)
		if r.ID == 0 {
			res.UUKmers = n
		}
	})
	team.EndSpan()

	// --- parallel traversal ---------------------------------------------
	team.BeginSpan("traverse")
	tr := &traverser{team: team, graph: graph, kt: kt, k: opt.K}
	contigsByRank := make([][]*Contig, team.Config().Ranks)
	res.TraversePhase = team.Run(func(r *xrt.Rank) {
		contigsByRank[r.ID] = tr.traverseRank(r)
	})
	res.Claimed = tr.claims.Load()
	res.Completed = tr.wins.Load()
	res.Aborted = tr.aborts.Load()
	res.Rounds = tr.rounds.Load()
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
		mine := contigsByRank[r.ID]
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
	res.Contigs = contigsByRank
	team.AddCounter("uu_kmers", res.UUKmers)
	team.AddCounter("contigs", res.NumContigs)
	return res
}

type traverser struct {
	team   *xrt.Team
	graph  *dht.Table[kmer.Kmer, Node]
	kt     *dht.Table[kmer.Kmer, kanalysis.KmerData]
	k      int
	claims atomic.Int64 // walks that claimed their seed
	wins   atomic.Int64 // walks that completed a contig
	aborts atomic.Int64 // walks that lost a conflict and released
	rounds atomic.Int64
}

// pos is an oriented position on the graph: the canonical vertex plus
// whether the walk currently reads it reverse-complemented.
type pos struct {
	canon   kmer.Kmer
	flipped bool
}

func (p pos) oriented(k int) kmer.Kmer {
	if p.flipped {
		return p.canon.RevComp(k)
	}
	return p.canon
}

// orientedExts returns the extension codes of p in walk orientation.
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

const (
	claimOK        = iota
	claimBusyOlder // held by a lower walk id: we must abort
	claimBusyNewer // held by a higher walk id: retry, they will abort
	claimSelf      // held by this very walk: cycle closed
	claimGone      // vertex does not exist
	claimRejected  // precondition (reciprocity) failed: terminate, no claim
)

// tryClaim atomically claims vertex v for walkID if it is free and the
// optional precondition holds. Checking the precondition inside the remote
// atomic matters: a vertex that fails reciprocity is a boundary belonging
// to a different contig and must never be claimed, and the check must see
// consistent node data. Only a charged attempt pays the remote-atomic
// cost; spin retries while waiting out a newer walk go through
// MutateRetry so the charge is per vertex, not per poll (see there).
func (t *traverser) tryClaim(r *xrt.Rank, v kmer.Kmer, walkID int64,
	pre func(Node) bool, charged bool) (Node, int) {
	var node Node
	status := claimGone
	mutate := t.graph.Mutate
	if !charged {
		mutate = t.graph.MutateRetry
	}
	mutate(r, v, func(n Node, exists bool) (Node, bool) {
		if !exists {
			status = claimGone
			return n, false
		}
		node = n
		if pre != nil && !pre(n) {
			status = claimRejected
			return n, false
		}
		switch {
		case n.Walk == 0:
			n.Walk = walkID
			status = claimOK
			return n, true
		case n.Walk == walkID:
			status = claimSelf
			return n, false
		case n.Walk < walkID:
			status = claimBusyOlder
			return n, false
		default:
			status = claimBusyNewer
			return n, false
		}
	})
	return node, status
}

func (t *traverser) release(r *xrt.Rank, claimed []pos, walkID int64) {
	for _, p := range claimed {
		t.graph.Mutate(r, p.canon, func(n Node, exists bool) (Node, bool) {
			if exists && n.Walk == walkID {
				n.Walk = 0
				return n, true
			}
			return n, false
		})
	}
}

// traverseRank runs the per-rank seed loop until global quiescence. In
// the first round only "locally contiguous" seeds are used — vertices
// with at least one neighbor placed on this rank. Under an oracle layout
// a misplaced (hash-collision) vertex is surrounded by remote neighbors;
// seeding a walk from it would re-walk a remote contig and abort, turning
// one misplaced k-mer into O(contig) remote traffic. Deferring such seeds
// one round lets the owning rank's walks claim their chains first, so a
// misplaced vertex costs O(1) remote operations, matching the collision
// accounting of §3.2.
func (t *traverser) traverseRank(r *xrt.Rank) []*Contig {
	var out []*Contig
	for round := 0; ; round++ {
		progress := int64(0)
		// snapshot local seed candidates; claims mutate the shard, so
		// collect keys first
		var seeds []kmer.Kmer
		t.graph.LocalRange(r, func(km kmer.Kmer, n Node) bool {
			if n.Walk != 0 {
				return true
			}
			if round == 0 && !t.locallyContiguous(r, km, n) {
				return true
			}
			seeds = append(seeds, km)
			return true
		})
		for _, seed := range seeds {
			if c, ok := t.walkFrom(r, seed); ok {
				out = append(out, c)
				progress++
			} else {
				progress++ // claims changed state; another round may be needed
			}
		}
		// Quiescence: nobody made progress and no free vertices remain.
		free := int64(0)
		t.graph.LocalRange(r, func(km kmer.Kmer, n Node) bool {
			if n.Walk == 0 {
				free++
			}
			return true
		})
		total := r.AllReduceInt64(progress+free, func(a, b int64) int64 { return a + b })
		if total == 0 && round > 0 {
			if int64(round) > t.rounds.Load() {
				t.rounds.Store(int64(round))
			}
			return out
		}
	}
}

// locallyContiguous reports whether a vertex has a neighbor whose home is
// this rank. Owner computation is pure hashing — no communication.
func (t *traverser) locallyContiguous(r *xrt.Rank, km kmer.Kmer, n Node) bool {
	any := false
	for _, dir := range [2]bool{false, true} {
		extL, extR := n.ExtL, n.ExtR // canonical orientation
		ext := extR
		if dir {
			ext = extL
		}
		if !kmer.IsBaseExt(ext) {
			continue
		}
		any = true
		code, _ := kmer.BaseCode(ext)
		var nxt kmer.Kmer
		if dir {
			nxt = km.NextLeft(t.k, code)
		} else {
			nxt = km.NextRight(t.k, code)
		}
		canon, _ := nxt.Canonical(t.k)
		if t.graph.Owner(canon) == r.ID {
			return true
		}
	}
	// isolated vertices (no base extensions) are their own contigs; seed
	// them immediately
	return !any
}

// walkFrom attempts a complete walk seeded at the given vertex. It
// returns (contig, true) on completion, or (nil, false) if the seed was
// already taken or the walk aborted after a lost conflict.
func (t *traverser) walkFrom(r *xrt.Rank, seed kmer.Kmer) (*Contig, bool) {
	walkID := t.team.NextID()
	node, st := t.tryClaim(r, seed, walkID, nil, true)
	if st != claimOK {
		return nil, false
	}
	t.claims.Add(1)
	// A walk is where ranks race, and on the machine being simulated they
	// all walk at once. Here a rank is a goroutine on a core or two, and
	// one that never blocks keeps its core for a whole scheduler quantum
	// (10 ms: longer than its entire seed loop once the table operations
	// under it got fast), so whichever ranks run first would walk nearly
	// every contig, and traversal virtual time — the busiest rank's —
	// would measure the host's scheduling instead of the algorithm, rising
	// as the program got faster. Yielding once per claimed seed lets the
	// other ranks' walks in. It changes no charge, and the assembly does
	// not depend on it.
	runtime.Gosched()
	k := t.k
	start := pos{canon: seed, flipped: false}
	claimed := []pos{start}
	sumCount := uint64(node.Count)

	var rightBuf, leftBuf []byte
	// extend right, then left
	endR, ok := t.extend(r, walkID, start, node, false, &rightBuf, &claimed, &sumCount)
	if !ok {
		t.release(r, claimed, walkID)
		t.aborts.Add(1)
		return nil, false
	}
	var endL walkEnd
	if endR.term == TermCycle {
		endL = walkEnd{term: TermCycle}
	} else {
		endL, ok = t.extend(r, walkID, start, node, true, &leftBuf, &claimed, &sumCount)
		if !ok {
			t.release(r, claimed, walkID)
			t.aborts.Add(1)
			return nil, false
		}
	}

	// assemble sequence: reverse(leftBuf) + seed + rightBuf
	seq := make([]byte, 0, len(leftBuf)+k+len(rightBuf))
	for i := len(leftBuf) - 1; i >= 0; i-- {
		seq = append(seq, leftBuf[i])
	}
	seq = start.oriented(k).Append(seq, k)
	seq = append(seq, rightBuf...)
	c := &Contig{
		Seq: seq, SumCount: sumCount,
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
	t.wins.Add(1)
	return c, true
}

// walkEnd describes how and where one direction of a walk terminated.
type walkEnd struct {
	term   byte
	nbr    kmer.Kmer
	hasNbr bool
}

// extend grows the walk from start in one direction (left if goLeft),
// appending bases to buf and claimed vertices to claimed. It returns how
// the direction terminated, or ok=false if the walk must abort.
func (t *traverser) extend(r *xrt.Rank, walkID int64, start pos, startNode Node,
	goLeft bool, buf *[]byte, claimed *[]pos, sumCount *uint64) (walkEnd, bool) {
	k := t.k
	cur, curNode := start, startNode
	for {
		extL, extR := orientedExts(curNode, cur.flipped)
		ext := extR
		if goLeft {
			ext = extL
		}
		switch ext {
		case kmer.ExtFork:
			return walkEnd{term: TermFork}, true
		case kmer.ExtNone:
			return walkEnd{term: TermNone}, true
		}
		code, _ := kmer.BaseCode(ext)
		curOriented := cur.oriented(k)
		var nextOriented kmer.Kmer
		if goLeft {
			nextOriented = curOriented.NextLeft(k, code)
		} else {
			nextOriented = curOriented.NextRight(k, code)
		}
		canon, flipped := nextOriented.Canonical(k)
		next := pos{canon: canon, flipped: flipped}

		// reciprocity precondition: the neighbor must uniquely point back
		// at us; a vertex that does not is a boundary of another contig.
		wantBase := curOriented.Base(k - 1)
		if !goLeft {
			wantBase = curOriented.Base(0)
		}
		recip := func(n Node) bool {
			nExtL, nExtR := orientedExts(n, next.flipped)
			back := nExtR
			if !goLeft {
				back = nExtL
			}
			return kmer.IsBaseExt(back) && back == kmer.CodeBase(wantBase)
		}

		// claim, with wait-or-abort conflict resolution: the walk with the
		// lower id has priority; the newer walk aborts so the older can
		// pass through (the paper's lightweight synchronization scheme).
		var node Node
		for spins := 0; ; spins++ {
			n, st := t.tryClaim(r, canon, walkID, recip, spins == 0)
			switch st {
			case claimOK:
				node = n
			case claimGone:
				// Neighbor is not a UU graph vertex; classify the end by
				// consulting the full k-mer table: a surviving k-mer with a
				// forked side is a true branch point (the bubble module
				// uses these junctions), an absent one is a dead end.
				if d, ok := t.kt.Get(r, canon); ok {
					term := TermNone
					if d.ExtL == kmer.ExtFork || d.ExtR == kmer.ExtFork {
						term = TermFork
					}
					return walkEnd{term: term, nbr: canon, hasNbr: true}, true
				}
				return walkEnd{term: TermNone}, true
			case claimRejected:
				return walkEnd{term: TermNonRecip, nbr: canon, hasNbr: true}, true
			case claimSelf:
				return walkEnd{term: TermCycle}, true
			case claimBusyOlder:
				return walkEnd{}, false // abort: the older walk has priority
			case claimBusyNewer:
				// the newer walk will abort when it reaches our claims
				if spins > 8 {
					runtime.Gosched()
				}
				continue
			}
			break
		}

		*claimed = append(*claimed, next)
		*buf = append(*buf, ext)
		*sumCount += uint64(node.Count)
		cur, curNode = next, node
	}
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

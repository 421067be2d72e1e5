package dht

import "sync/atomic"

// Oracle is the communication-avoiding placement function of paper §3.2.
// It is built offline from the contigs of a previous assembly of the same
// species: all k-mers of one contig are assigned the same rank (contigs
// round-robined over ranks for load balance), recorded in a compact vector
// indexed by the k-mer's uniform hash. Hash-slot collisions leave the
// earlier assignment in place, so the colliding k-mer will live on a
// "wrong" (remote) rank — the number of collisions approximates the number
// of communication events the traversal will still incur. A larger vector
// trades memory for fewer collisions (the paper's oracle-1 vs oracle-4).
// A vector maps k-mers of one length onto the ranks of one team, so the
// pipeline builds one per contig-generation round for the team running
// it; no vector is ever stored in a checkpoint.
type Oracle struct {
	slots      []int32
	ranks      int
	collisions atomic.Int64
}

// NewOracle creates an oracle vector with the given number of slots for a
// team of the given rank count. Slots should be a small multiple of the
// expected k-mer cardinality.
func NewOracle(slots int, ranks int) *Oracle {
	o := &Oracle{slots: make([]int32, slots), ranks: ranks}
	for i := range o.slots {
		o.slots[i] = -1
	}
	return o
}

// Assign records that the key with uniform hash h should live on rank.
// The first assignment of a slot wins; a subsequent conflicting assignment
// is counted as a collision and ignored. Safe for concurrent use (the
// vector construction "can be trivially parallelized", §3.2).
func (o *Oracle) Assign(h uint64, rank int) (stored bool) {
	i := h % uint64(len(o.slots))
	if atomic.CompareAndSwapInt32(&o.slots[i], -1, int32(rank)) {
		return true
	}
	if atomic.LoadInt32(&o.slots[i]) != int32(rank) {
		o.collisions.Add(1)
	}
	return false
}

// Place implements PlaceFunc: keys whose slot was assigned go to the
// recorded rank; unassigned keys fall back to the uniform layout.
func (o *Oracle) Place(h uint64) int {
	if v := atomic.LoadInt32(&o.slots[h%uint64(len(o.slots))]); v >= 0 {
		return int(v)
	}
	return int(h % uint64(o.ranks))
}

// Collisions returns the number of conflicting assignments observed while
// building the vector — an upper-bound estimate of residual communication.
func (o *Oracle) Collisions() int64 { return o.collisions.Load() }

// MemoryBytes returns the per-process memory footprint of the vector,
// the quantity the paper reports as 115 MB (oracle-1) vs 461 MB (oracle-4).
func (o *Oracle) MemoryBytes() int64 { return int64(len(o.slots)) * 4 }

// Package flat is the open-addressed hash table every hash-addressed
// structure of the assembler sits on: the lock stripes of a dht.Table
// shard, the Misra–Gries counter store, the heavy-hitter set of k-mer
// analysis. It exists because all of them already hold the key's hash when
// they reach the table — so the table never hashes a key — and because a
// lookup should cost one cache miss, not the two dependent ones of a
// bucketed map.
//
// Layout: one array of slots {tag, key, value}, linear probing. The tag is
// the caller's hash with bit 0 forced on (0 marks an empty slot), stored so
// that a probe rejects almost every foreign slot on one word compare and
// so that growth re-places entries without touching keys. A slot's home is
// the high bits of tag × salt scaled onto the capacity (a multiply-shift
// range reduction), so capacities need not be powers of two. Deletion
// shifts the rest of the cluster back, so there are no tombstones and a
// table that shrinks probes like one that never grew. Storage is
// allocated on first insert and grows geometrically when three quarters
// full (see Aim).
//
// The salt is a function of the capacity. Without it every table would
// order its slots by the same function of the hash, and copying one table
// into a smaller, growing one in slot order — the k-mer table re-dealt
// into a fresh table, one summary merged into another — would pile every
// early key onto the low slots of the destination: quadratic probing.
// With it two tables order alike only when their capacities are equal,
// and then the copy merely reproduces the source's clusters. The one case
// left is a slot-order copy into a table that already holds entries and
// has the source's capacity; callers that do this (mg.Merge) call Grow
// first so that the whole union fits below the load limit.
//
// Pointers returned by Get and Upsert address the slot itself: a
// read-modify-write is one probe and no value copy. They stay valid until
// the next Upsert, Filter, Grow or Clear on the map.
//
// A Map is not safe for concurrent mutation; concurrent readers of a map
// nobody mutates need no lock (a frozen dht.Table is served that way).
package flat

import "math/bits"

type slot[K comparable, V any] struct {
	tag uint64 // 0 = empty, else the key's hash | 1
	key K
	val V
}

// Map is an open-addressed hash table from K to V addressed by
// caller-supplied hashes. The zero value is an empty map.
//
// Every method taking a hash requires the same well-mixed 64-bit function
// of the key on every call (bit 0 is ignored); callers holding a weak
// hash pass it through Mix first.
type Map[K comparable, V any] struct {
	slots []slot[K, V]
	n     int
	salt  uint64 // odd multiplier derived from len(slots)
	aim   int    // slots the map expects to reach (Aim); 0 = no idea
}

// Mix is a 64-bit finalizer for callers whose hashes are not already well
// mixed, or that spend the hash's own low bits elsewhere (dht placement
// takes h mod ranks; the stripe index takes the low bits of Mix(h), the
// slot index the high bits of Mix(h) × salt).
func Mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

const minSlots = 8

// Aim tells the map how many slots it should expect to end up with. It
// allocates nothing — storage still appears at the first insert — and only
// changes the sizes growth passes through: below the aim, steps of ×8 that
// land on it exactly (an eighth, then all of it: next to nothing is copied
// or thrown away on the way, and a map that stays small never pays for
// the aim); beyond it, steps of a quarter — a map that outgrows what it
// was told is probably near its final size, and a doubling there would
// leave it a third full. Without an aim a map doubles from 8 slots.
func (m *Map[K, V]) Aim(slots int) { m.aim = slots }

// nextSlots is the size automatic growth moves to.
func (m *Map[K, V]) nextSlots() int {
	cur := len(m.slots)
	switch {
	case cur == 0 && m.aim == 0:
		return minSlots
	case m.aim == 0:
		return 2 * cur
	case cur >= m.aim:
		return cur + cur/4
	}
	next := m.aim
	for next>>3 > cur && next>>3 >= minSlots {
		next >>= 3
	}
	if next < minSlots {
		next = minSlots
	}
	return next
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Cap returns the number of slots allocated.
func (m *Map[K, V]) Cap() int { return len(m.slots) }

// Clear removes every entry and keeps the slot array, so that a map
// refilled to a similar size — a per-rank scratch table reused from one
// work item to the next — never allocates again. It costs one pass over
// the slots, whatever the number of entries.
func (m *Map[K, V]) Clear() {
	clear(m.slots)
	m.n = 0
}

func (m *Map[K, V]) home(tag uint64) int {
	hi, _ := bits.Mul64(tag*m.salt, uint64(len(m.slots)))
	return int(hi)
}

// Get returns a pointer to the value stored under k, or nil.
func (m *Map[K, V]) Get(h uint64, k K) *V {
	if m.n == 0 {
		return nil
	}
	tag := h | 1
	s := m.slots
	for i := m.home(tag); ; {
		e := &s[i]
		if e.tag == tag && e.key == k {
			return &e.val
		}
		if e.tag == 0 {
			return nil
		}
		if i++; i == len(s) {
			i = 0
		}
	}
}

// Upsert returns a pointer to the value stored under k, inserting a zero
// value first when k is absent; inserted reports which.
func (m *Map[K, V]) Upsert(h uint64, k K) (v *V, inserted bool) {
	tag := h | 1
	if s := m.slots; len(s) != 0 {
		for i := m.home(tag); ; {
			e := &s[i]
			if e.tag == tag && e.key == k {
				return &e.val, false
			}
			if e.tag == 0 {
				if (m.n+1)*4 > len(s)*3 {
					break
				}
				e.tag, e.key = tag, k
				m.n++
				return &e.val, true
			}
			if i++; i == len(s) {
				i = 0
			}
		}
	}
	// An aimed step can land just above an array the caller sized itself
	// (Grow): never take one too small for the entry being added.
	m.rehash(max(m.nextSlots(), ((m.n+1)*4+2)/3))
	e := m.place(tag)
	e.key = k
	m.n++
	return &e.val, true
}

// place claims the first empty slot of tag's probe sequence.
func (m *Map[K, V]) place(tag uint64) *slot[K, V] {
	s := m.slots
	for i := m.home(tag); ; {
		if e := &s[i]; e.tag == 0 {
			e.tag = tag
			return e
		}
		if i++; i == len(s) {
			i = 0
		}
	}
}

// Grow re-places the entries into an array of at least slots slots, and of
// enough slots to hold them below the load limit; a map that already has
// that many is left alone. Callers use it to take a growth step of their
// own size or to make room for a bulk insert up front (n entries need
// n*4/3 slots, rounded up).
func (m *Map[K, V]) Grow(slots int) {
	if need := (m.n*4 + 2) / 3; slots < need {
		slots = need
	}
	if slots < minSlots {
		slots = minSlots
	}
	if slots > len(m.slots) {
		m.rehash(slots)
	}
}

func (m *Map[K, V]) rehash(slots int) {
	old := m.slots
	m.slots = make([]slot[K, V], slots)
	m.salt = Mix(uint64(slots)*0x9e3779b97f4a7c15) | 1
	for i := range old {
		if e := &old[i]; e.tag != 0 {
			*m.place(e.tag) = *e
		}
	}
}

// deleteAt empties slot i and closes the gap: each later entry of the
// cluster whose home is not after the gap moves back into it, so every
// probe sequence stays free of holes.
func (m *Map[K, V]) deleteAt(i int) {
	s := m.slots
	for j := i; ; {
		if j++; j == len(s) {
			j = 0
		}
		if s[j].tag == 0 {
			break
		}
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: moving it would put it before its home.
		h := m.home(s[j].tag)
		if i < j && i < h && h <= j || i > j && (h > i || h <= j) {
			continue
		}
		s[i] = s[j]
		i = j
	}
	s[i] = slot[K, V]{}
	m.n--
}

// Range calls fn for every entry in slot order until fn returns false.
// The hash passed is valid for every hash-taking method of any Map. fn
// may write through v but must not insert into or delete from the map.
func (m *Map[K, V]) Range(fn func(h uint64, k K, v *V) bool) {
	for i := range m.slots {
		if e := &m.slots[i]; e.tag != 0 && !fn(e.tag, e.key, &e.val) {
			return
		}
	}
}

// Filter calls keep exactly once for every entry and removes those it
// rejects, in place. keep may write through v.
func (m *Map[K, V]) Filter(keep func(k K, v *V) bool) {
	if m.n == 0 {
		return
	}
	s := m.slots
	// Start behind an empty slot (one exists: the load limit), so that no
	// cluster straddles the starting point and a deletion only ever pulls
	// entries not yet visited into the slot under examination.
	i := 0
	for s[i].tag != 0 {
		i++
	}
	for left := len(s) - 1; left > 0; {
		if i++; i == len(s) {
			i = 0
		}
		for s[i].tag != 0 && !keep(s[i].key, &s[i].val) {
			m.deleteAt(i)
		}
		left--
	}
}

package flat

import (
	"math/rand"
	"testing"
)

// hashModes are the hash functions the model test drives the map with,
// from well mixed down to degenerate: the table must stay correct (if
// slow) whatever the caller hands it.
// spread is a well-mixed test hash of small integers.
func spread(k uint64) uint64 { return Mix(Mix(k*0x9e3779b97f4a7c15) + 0x94d049bb133111eb) }

var hashModes = []func(k uint16) uint64{
	func(k uint16) uint64 { return spread(uint64(k)) },
	func(k uint16) uint64 { return 0 },                      // one tag for every key
	func(k uint16) uint64 { return uint64(k&3) << 62 },      // four tags, equal low bits
	func(k uint16) uint64 { return uint64(k) },              // only low bits differ
	func(k uint16) uint64 { return ^uint64(0) - uint64(k) }, // homes crowd the array's end
}

// runScript drives a Map and a reference Go map through the operation
// sequence encoded in script and fails on the first divergence. Two bytes
// per step: an opcode and a key (keys are drawn from a small space so that
// deletes, re-inserts and collisions are frequent).
func runScript(t *testing.T, mode int, script []byte) {
	t.Helper()
	hash := hashModes[mode%len(hashModes)]
	var m Map[uint16, int]
	m.Aim(mode / len(hashModes) * 37) // 0 (none), then aims the script under- and overshoots
	ref := make(map[uint16]int)
	check := func(step int) {
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, model %d", step, m.Len(), len(ref))
		}
		if m.Cap() > 0 && m.Len()*4 > m.Cap()*3 {
			t.Fatalf("step %d: load %d/%d above the limit", step, m.Len(), m.Cap())
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, k := script[i], uint16(script[i+1])
		if op&0x80 != 0 {
			k |= 0x100 // a second key space half, reached less often
		}
		switch op % 8 {
		case 0, 1, 2: // upsert, add one
			v, inserted := m.Upsert(hash(k), k)
			if _, had := ref[k]; had == inserted {
				t.Fatalf("step %d: Upsert(%d) inserted=%v, model had=%v", i, k, inserted, had)
			}
			if *v != ref[k] {
				t.Fatalf("step %d: Upsert(%d) found %d, model %d", i, k, *v, ref[k])
			}
			*v++
			ref[k]++
		case 3, 4: // get
			v := m.Get(hash(k), k)
			want, had := ref[k]
			if (v != nil) != had || had && *v != want {
				t.Fatalf("step %d: Get(%d) = %v, model (%d,%v)", i, k, v, want, had)
			}
		case 5: // delete: a filter that rejects one key
			m.Filter(func(key uint16, _ *int) bool { return key != k })
			delete(ref, k)
		case 6: // filter: drop keys sharing k's low bits, bump the rest
			seen := make(map[uint16]bool)
			m.Filter(func(key uint16, v *int) bool {
				if seen[key] {
					t.Fatalf("step %d: Filter visited %d twice", i, key)
				}
				seen[key] = true
				if key&7 == k&7 {
					return false
				}
				*v += 100
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("step %d: Filter visited %d entries, model has %d", i, len(seen), len(ref))
			}
			for key := range ref {
				if key&7 == k&7 {
					delete(ref, key)
				} else {
					ref[key] += 100
				}
			}
		case 7: // explicit growth, to arbitrary (non power of two) sizes
			if k&7 != 7 {
				m.Grow(int(k) * 3)
				break
			}
			// every eighth time, Clear instead: empty, storage kept
			slots := m.Cap()
			m.Clear()
			clear(ref)
			if m.Cap() != slots {
				t.Fatalf("step %d: Clear changed Cap %d -> %d", i, slots, m.Cap())
			}
		}
		check(i)
	}
	// Final state: Range yields exactly the model, each hash it reports
	// finds its key again, and every key is reachable by Get (no probe
	// sequence was broken by a delete or a growth).
	got := make(map[uint16]int)
	m.Range(func(h uint64, k uint16, v *int) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range yielded %d twice", k)
		}
		got[k] = *v
		if p := m.Get(h, k); p != v {
			t.Fatalf("Range hash of %d does not find its slot", k)
		}
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("Range yielded %d entries, model has %d", len(got), len(ref))
	}
	for k, want := range ref {
		if got[k] != want {
			t.Fatalf("key %d: %d, model %d", k, got[k], want)
		}
		if v := m.Get(hash(k), k); v == nil || *v != want {
			t.Fatalf("key %d unreachable after the script", k)
		}
	}
}

func TestModelRandomScripts(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		script := make([]byte, 2*(1+rng.Intn(600)))
		rng.Read(script)
		if trial%3 == 0 {
			// a narrow key space: delete-then-reinsert of the same few
			// keys, clusters that wrap around a tiny array
			for i := 1; i < len(script); i += 2 {
				script[i] &= 15
			}
		}
		runScript(t, trial, script)
	}
}

func FuzzMapAgainstModel(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 2, 5, 1, 3, 1, 6, 0})
	f.Add(byte(1), []byte{0, 1, 0, 2, 0, 3, 5, 2, 0, 2, 7, 9, 3, 3})
	f.Add(byte(4), []byte{0, 7, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 5, 7, 5, 5, 0, 7, 6, 1})
	f.Add(byte(2), []byte{0, 1, 0, 2, 0, 3, 7, 7, 3, 1, 0, 2, 0, 9, 7, 15, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, mode byte, script []byte) {
		runScript(t, int(mode), script)
	})
}

// TestAimShapesGrowth: an aimed map allocates nothing up front, reaches its
// aim in steps of ×8 that land on it exactly, and adds a quarter past it; a map
// that stays small never allocates the aim.
func TestAimShapesGrowth(t *testing.T) {
	var m Map[uint64, int]
	m.Aim(1000)
	if m.Cap() != 0 {
		t.Fatalf("Aim allocated %d slots", m.Cap())
	}
	var caps []int
	for k := uint64(0); k < 1400; k++ {
		m.Upsert(spread(k), k)
		if len(caps) == 0 || caps[len(caps)-1] != m.Cap() {
			caps = append(caps, m.Cap())
		}
	}
	want := []int{15, 125, 1000, 1250, 1562, 1952}
	if len(caps) != len(want) {
		t.Fatalf("capacities %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("capacities %v, want %v", caps, want)
		}
	}
}

// TestDeleteAcrossWrapAround pins the backward-shift cases by hand: a
// cluster that starts near the end of the array and wraps to its start,
// deletes at each position of it, and re-insertion afterwards.
func TestDeleteAcrossWrapAround(t *testing.T) {
	hash := hashModes[1] // every key has one home: a single cluster
	for del := uint16(0); del < 6; del++ {
		var m Map[uint16, int]
		for k := uint16(0); k < 6; k++ {
			v, _ := m.Upsert(hash(k), k)
			*v = int(k) + 10
		}
		m.Filter(func(k uint16, _ *int) bool { return k != del })
		if m.Len() != 5 {
			t.Fatalf("delete %d: %d entries left, want 5", del, m.Len())
		}
		for k := uint16(0); k < 6; k++ {
			v := m.Get(hash(k), k)
			if k == del {
				if v != nil {
					t.Fatalf("deleted key %d still found", k)
				}
			} else if v == nil || *v != int(k)+10 {
				t.Fatalf("after deleting %d, key %d lost", del, k)
			}
		}
		if v, inserted := m.Upsert(hash(del), del); !inserted || *v != 0 {
			t.Fatalf("re-insert of %d: inserted=%v value=%d", del, inserted, *v)
		}
	}
}

// TestGrowthDuringProbeChain: growth in the middle of a probe
// chain (the insert that finds its chain's empty slot is the one that
// trips the load limit) must land the new key in the new array.
func TestGrowthDuringProbeChain(t *testing.T) {
	hash := hashModes[2]
	var m Map[uint16, int]
	for k := uint16(0); k < 200; k++ {
		before := m.Cap()
		v, inserted := m.Upsert(hash(k), k)
		if !inserted {
			t.Fatalf("key %d reported present", k)
		}
		*v = int(k)
		if m.Cap() != before {
			if p := m.Get(hash(k), k); p != v {
				t.Fatalf("key %d: pointer from the growing Upsert is not the slot's", k)
			}
		}
	}
	for k := uint16(0); k < 200; k++ {
		if v := m.Get(hash(k), k); v == nil || *v != int(k) {
			t.Fatalf("key %d lost across growth", k)
		}
	}
}

// TestSlotOrderCopyStaysLinear guards the reason the slot index is salted
// by capacity: copying a table into a fresh, growing one in slot order
// must not pile the early keys onto one end of the destination. Measured
// as the longest run of occupied slots each time the destination is full
// enough to grow — O(log n) when healthy, O(n) when the copy clusters —
// so the test asserts on no wall-clock quantity.
func TestSlotOrderCopyStaysLinear(t *testing.T) {
	const n = 50000
	var src, dst Map[uint64, int]
	for k := uint64(0); k < n; k++ {
		src.Upsert(spread(k), k)
	}
	longestRun := func() int {
		longest, run := 0, 0
		for i := range dst.slots {
			if dst.slots[i].tag == 0 {
				run = 0
			} else if run++; run > longest {
				longest = run
			}
		}
		return longest
	}
	src.Range(func(h uint64, k uint64, _ *int) bool {
		if full := (dst.Len()+1)*4 > dst.Cap()*3; full && dst.Cap() >= 1024 {
			if l := longestRun(); l > 200 {
				t.Fatalf("at %d of %d slots the copy has built a cluster of %d", dst.Len(), dst.Cap(), l)
			}
		}
		dst.Upsert(h, k)
		return true
	})
}

func BenchmarkShardUpsert(b *testing.B) {
	b.ReportAllocs()
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = spread(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; {
		var m Map[[2]uint64, [5]uint64] // the k-mer count table's 64-byte slot
		for _, h := range keys {
			v, _ := m.Upsert(h, [2]uint64{h, h})
			v[0]++
			if i++; i == b.N {
				break
			}
		}
	}
}

func BenchmarkShardGet(b *testing.B) {
	b.ReportAllocs()
	var m Map[[2]uint64, [5]uint64]
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = spread(uint64(i))
		m.Upsert(keys[i], [2]uint64{keys[i], keys[i]})
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := keys[i&(len(keys)-1)]
		if v := m.Get(h, [2]uint64{h, h}); v != nil {
			sink += v[0]
		}
	}
	_ = sink
}

package dht

import (
	"testing"

	"hipmer/internal/xrt"
)

// FuzzDedupWindow is the property test behind the chaos layer's
// effectively-once guarantee: a fuzzed delivery schedule of drops,
// duplicates, and bounded reorders over a sequence of non-idempotent
// Mutate increments, filtered through an xrt.DedupWindow exactly as
// the reliable channel filters retransmissions, must leave the table in
// the same final state as in-order exactly-once delivery. Dropped
// transmissions are retransmissions in disguise (at-least-once transport
// always redelivers, so a drop only reorders and duplicates deliveries),
// and reordering stays within the window — the documented bound for
// exactly-once application.
func FuzzDedupWindow(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x40, 0x03, 0xff, 0x10})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const windowSize = 16
		const maxInFlight = 8
		nOps := 8 + len(data)%64
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}

		// The logical operation stream: op seq increments key (seq % 7)
		// by a seq-derived delta. Non-idempotent on purpose: applying any
		// op twice, or skipping one, changes a final sum.
		key := func(seq int) uint64 { return uint64(seq % 7) }
		delta := func(seq int) int64 { return int64(1 + byteAt(seq)%9) }

		// Build the first-delivery order: up to maxInFlight messages are
		// in the network at once and the fuzzer picks which lands next,
		// restricted to seqs that keep the oldest undelivered message
		// inside the dedup window (the transport's reorder bound: a
		// message can only be overtaken while both are in flight).
		var order, pending []int
		next, maxSeen, step := 0, -1, 0
		for len(order) < nOps {
			for next < nOps && len(pending) < maxInFlight {
				pending = append(pending, next)
				next++
			}
			oldest := pending[0]
			var eligible []int
			for idx, s := range pending {
				if s <= oldest+windowSize-1 {
					eligible = append(eligible, idx)
				}
			}
			pickIdx := eligible[int(byteAt(step))%len(eligible)]
			s := pending[pickIdx]
			pending = append(pending[:pickIdx], pending[pickIdx+1:]...)
			order = append(order, s)
			if s > maxSeen {
				maxSeen = s
			}
			step++
		}

		// Inject duplicates: immediate retransmissions and stragglers of
		// long-delivered messages (which may fall below the window — the
		// window treats them as already applied, which they are).
		var schedule []int
		for i, s := range order {
			b := byteAt(nOps + i)
			schedule = append(schedule, s)
			if b&0x3 == 0x3 {
				schedule = append(schedule, s)
			}
			if b&0xc == 0xc {
				schedule = append(schedule, order[i/2])
			}
		}

		// Apply the schedule through a dedup window on one rank.
		team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
		tab := New[uint64, int64](team, intOpts(), sumMerge)
		window := xrt.NewDedupWindow(windowSize)
		team.Run(func(r *xrt.Rank) {
			if r.ID != 0 {
				return
			}
			for _, seq := range schedule {
				if !window.Admit(uint64(seq)) {
					continue // duplicate delivery: discarded, never applied
				}
				k, d := key(seq), delta(seq)
				tab.Mutate(r, k, func(v int64, _ bool) (int64, bool) {
					return v + d, true
				})
			}
		})

		// Model: in-order exactly-once delivery.
		want := map[uint64]int64{}
		for seq := 0; seq < nOps; seq++ {
			want[key(seq)] += delta(seq)
		}
		for k, w := range want {
			if v, ok := tab.Lookup(k); !ok || v != w {
				t.Fatalf("key %d = (%d,%v) after fuzzed schedule %v, want exactly-once value %d",
					k, v, ok, schedule, w)
			}
		}
		if got := tab.Len(); got != int64(len(want)) {
			t.Fatalf("table has %d keys, want %d", got, len(want))
		}
	})
}

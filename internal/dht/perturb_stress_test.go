package dht

import (
	"testing"

	"hipmer/internal/xrt"
)

// TestStressConcurrentOpsPerturbed re-runs the concurrent stress workload
// under a sweep of schedule-perturbation seeds. Each plan delays flushes,
// barrier arrivals, and rank starts differently, widening the races the
// stripe locks must win; the final table must nevertheless be identical
// across all plans (and identical to the unperturbed run), with no update
// lost or duplicated. Run with -race for full effect.
func TestStressConcurrentOpsPerturbed(t *testing.T) {
	const (
		ranks = 8
		puts  = 1500
		keys  = 97
	)
	ks := keysInStripes(keys, stripes/2) // few keys in half the stripes: contention
	workload := func(perturbSeed int64) map[uint64]int64 {
		team := xrt.NewTeam(xrt.Config{
			Ranks:        ranks,
			RanksPerNode: 2,
			Seed:         5,
			Inject:       xrt.Inject{PerturbSeed: perturbSeed},
		})
		opt := intOpts()
		opt.AggBufSize = 16
		tab := New[uint64, int64](team, opt, sumMerge)
		team.Run(func(r *xrt.Rank) {
			rng := xrt.NewPrng(int64(r.ID) + 1)
			for i := 0; i < puts; i++ {
				tab.Put(r, ks[rng.Uint64()%keys], 1)
				if i%7 == 0 {
					tab.Get(r, ks[rng.Uint64()%keys])
				}
				if i%113 == 0 {
					tab.Flush(r)
				}
				if i%6 == 0 {
					tab.Mutate(r, ks[rng.Uint64()%keys], func(v int64, _ bool) (int64, bool) {
						return v + 1, true
					})
				}
			}
			tab.Flush(r)
			r.Barrier()
			tab.Freeze(r)
			for _, k := range ks {
				tab.Get(r, k)
			}
		})
		out := make(map[uint64]int64, keys)
		tab.RangeAll(func(k uint64, v int64) bool { out[k] = v; return true })
		return out
	}

	base := workload(0) // unperturbed
	var baseSum int64
	for _, v := range base {
		baseSum += v
	}
	want := int64(ranks * (puts + puts/6)) // puts + one mutate per 6 puts, per rank
	if baseSum != want {
		t.Fatalf("unperturbed run lost updates: sum %d, want %d", baseSum, want)
	}
	for _, seed := range []int64{1, 2, 3, 17, 0x5eed} {
		got := workload(seed)
		if len(got) != len(base) {
			t.Fatalf("perturb seed %d: %d keys, unperturbed %d", seed, len(got), len(base))
		}
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("perturb seed %d: key %d = %d, unperturbed %d", seed, k, got[k], v)
			}
		}
	}
}

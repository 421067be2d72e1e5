package xrt

import "testing"

// perturbWorkload is a small phase exercising the charged operations and
// collectives; it returns everything observable that must be invariant
// under schedule perturbation.
func perturbWorkload(cfg Config) (virtual float64, agg CommStats, reduced int64) {
	team := NewTeam(cfg)
	reds := make([]int64, cfg.Ranks) // per-rank slot: ranks must not share a variable
	for phase := 0; phase < 3; phase++ {
		team.Run(func(r *Rank) {
			for i := 0; i < 50; i++ {
				r.ChargeLookup((r.ID+i)%r.N(), 16)
			}
			r.ChargeItems(100)
			r.Barrier()
			r.ChargeStoreBatch((r.ID+1)%r.N(), 8, 128)
			reds[r.ID] = r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 { return a + b })
		})
	}
	return float64(team.VirtualNow()), team.AggStats(), reds[0]
}

// TestPerturbInvariants is the core guarantee: enabling a perturbation
// plan changes only physical scheduling. Virtual time, communication
// statistics and collective results are bit-identical to the unperturbed
// run, for every plan seed.
func TestPerturbInvariants(t *testing.T) {
	base := Config{Ranks: 8, RanksPerNode: 4, Seed: 11}
	v0, agg0, red0 := perturbWorkload(base)
	for _, seed := range []int64{1, 2, 7, 0xdeadbeef} {
		cfg := base
		cfg.Inject.PerturbSeed = seed
		v, agg, red := perturbWorkload(cfg)
		if v != v0 {
			t.Errorf("perturb seed %d: virtual time %v != unperturbed %v", seed, v, v0)
		}
		if agg != agg0 {
			t.Errorf("perturb seed %d: comm stats %+v != unperturbed %+v", seed, agg, agg0)
		}
		if red != red0 {
			t.Errorf("perturb seed %d: reduction %d != %d", seed, red, red0)
		}
	}
}

// TestPerturbNoopWithoutPlan checks a zero PerturbSeed costs nothing:
// ranks carry no delay stream and PerturbPoint returns immediately.
func TestPerturbNoopWithoutPlan(t *testing.T) {
	team := NewTeam(Config{Ranks: 2})
	for _, r := range team.ranks {
		if r.pert != nil {
			t.Fatalf("rank %d has a delay stream without a perturbation seed", r.ID)
		}
	}
	team.Run(func(r *Rank) {
		r.PerturbPoint(PerturbStart)
		r.PerturbPoint(PerturbBarrier)
		r.PerturbPoint(PerturbFlush)
	})
}

// TestPerturbDelayStreamsDeterministic checks the per-rank delay streams
// are a pure function of (plan seed, rank): distinct across ranks and
// reproducible across teams, independent of Config.Seed.
func TestPerturbDelayStreamsDeterministic(t *testing.T) {
	collect := func(cfg Config) [][]uint64 {
		team := NewTeam(cfg)
		out := make([][]uint64, cfg.Ranks)
		for i, r := range team.ranks {
			vs := make([]uint64, 4)
			for j := range vs {
				vs[j] = r.pert.Uint64()
			}
			out[i] = vs
		}
		return out
	}
	a := collect(Config{Ranks: 4, Seed: 1, Inject: Inject{PerturbSeed: 5}})
	b := collect(Config{Ranks: 4, Seed: 999, Inject: Inject{PerturbSeed: 5}})
	seen := map[uint64]bool{}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("rank %d delay stream depends on Config.Seed", i)
			}
		}
		if seen[a[i][0]] {
			t.Fatalf("delay streams collide across ranks")
		}
		seen[a[i][0]] = true
	}
	c := collect(Config{Ranks: 4, Seed: 1, Inject: Inject{PerturbSeed: 6}})
	if c[0][0] == a[0][0] && c[1][0] == a[1][0] {
		t.Fatal("different plan seeds produced the same delay schedule")
	}
}

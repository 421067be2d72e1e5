package xrt

import (
	"fmt"
	"testing"
)

// A team draws from two per-rank streams, each seeded from its plan's seed
// and the rank id alone: the chaos layer's drop decisions (chaosSeed) and
// the perturbation layer's delays (perturbSeed). The tests below freeze
// both derivations, so that changing one — which would silently move every
// chaos-armed run's drop, retry and dup counters, or every perturbed run's
// delay schedule — is a conscious, test-breaking decision.

// rankStreams returns rank i's chaos and delay streams for plan seed s.
func rankStreams(s int64, i int) (chaos, delay *Prng) {
	return NewPrng(chaosSeed(s, i)), NewPrng(perturbSeed(s, i))
}

// TestRankSeedDerivationPinned pins the first two draws of both streams.
// The golden values were produced by this implementation and must never
// change.
func TestRankSeedDerivationPinned(t *testing.T) {
	golden := []struct {
		seed         int64
		rank         int
		chaos, delay [2]uint64
	}{
		{1, 0, [2]uint64{0x2d23f0555e485be3, 0xb9c124b896e2fe04}, [2]uint64{0xb19d66f4f13890cc, 0x87318337fea7e895}},
		{1, 1, [2]uint64{0xc0fe1f1d1a453e7a, 0x6debf812cf387d9f}, [2]uint64{0x63c57a8bcefe2137, 0x9d7422bb3f0c032c}},
		{1, 2, [2]uint64{0x5f94604a723eff39, 0x9e001ce8631bf954}, [2]uint64{0xcbcb5dbbcc04098c, 0xf7e28154b1c984c1}},
		{42, 0, [2]uint64{0x909ea352d69c2b67, 0x210adcd095d2322f}, [2]uint64{0x2f57915cad944043, 0x59053b5f6242a384}},
		{42, 1, [2]uint64{0xb3007fb73060376d, 0x387402dc9c66b341}, [2]uint64{0xb9acd11a79acc2fc, 0xe2236d91b5ff3ff3}},
		{42, 2, [2]uint64{0x7eb8661f466395b6, 0x4262d1d1c3f9cfcb}, [2]uint64{0x385689aebba263aa, 0x368089a387da63eb}},
		{-9, 0, [2]uint64{0x2891f4996e1ae88e, 0x5e406aff8cc0d149}, [2]uint64{0xc092de6f224aaad9, 0x35ece8115f5fac07}},
		{-9, 1, [2]uint64{0x176b6b020db1b98e, 0x4d3f12bc462cd7ba}, [2]uint64{0x9629dd7f64c512ee, 0x0a330d926afed366}},
		{-9, 2, [2]uint64{0x8c9837115e3dd9ce, 0x0fd0fbf4911775d6}, [2]uint64{0x76edb72385ecaf64, 0xd9e1d1d196d066e7}},
	}
	for _, g := range golden {
		c, d := rankStreams(g.seed, g.rank)
		chaos, delay := [2]uint64{c.Uint64(), c.Uint64()}, [2]uint64{d.Uint64(), d.Uint64()}
		if chaos != g.chaos || delay != g.delay {
			t.Errorf("seed %d rank %d: got chaos %#x delay %#x, pinned %#x %#x",
				g.seed, g.rank, chaos, delay, g.chaos, g.delay)
		}
	}
}

// TestTeamRankRngMatchesDerivation asserts the team wires exactly that
// derivation into each rank, for several team sizes and seeds.
func TestTeamRankRngMatchesDerivation(t *testing.T) {
	for _, seed := range []int64{1, -9, 1 << 40} {
		for _, p := range []int{1, 3, 16} {
			team := NewTeam(Config{Ranks: p, Inject: Inject{PerturbSeed: seed, ChaosSeed: seed}})
			for i, r := range team.ranks {
				c, d := rankStreams(seed, i)
				if r.chaos.Uint64() != c.Uint64() || r.pert.Uint64() != d.Uint64() {
					t.Fatalf("seed %d ranks %d: rank %d's streams do not follow the derivation", seed, p, i)
				}
			}
		}
	}
}

// TestRankStreamsIndependent checks stream independence across ranks and
// layers: no two of a large team's chaos and delay streams share any value
// in their first draws (the rank term of each seed is a fixed stride, but
// splitmix64 initialization decorrelates the states).
func TestRankStreamsIndependent(t *testing.T) {
	const ranks, draws = 1024, 8
	for _, seed := range []int64{1, 42, -1234567} {
		seen := make(map[uint64]string, 2*ranks*draws)
		for i := 0; i < ranks; i++ {
			c, d := rankStreams(seed, i)
			for j := 0; j < 2*draws; j++ {
				p, who := c, fmt.Sprintf("rank %d's chaos stream", i)
				if j%2 == 1 {
					p, who = d, fmt.Sprintf("rank %d's delay stream", i)
				}
				v := p.Uint64()
				if prev, dup := seen[v]; dup {
					t.Fatalf("seed %d: %s and %s emitted the same value %#x", seed, prev, who, v)
				}
				seen[v] = who
			}
		}
	}
}

// TestRankStreamsReproducibleAcrossTeams asserts a rank's streams depend
// only on (plan seed, rank) — not on team size, node grouping, Config.Seed
// or the drop rate.
func TestRankStreamsReproducibleAcrossTeams(t *testing.T) {
	draw := func(cfg Config) [8]uint64 {
		r := NewTeam(cfg).ranks[2]
		var out [8]uint64
		for i := 0; i < len(out); i += 2 {
			out[i], out[i+1] = r.chaos.Uint64(), r.pert.Uint64()
		}
		return out
	}
	armed := Inject{PerturbSeed: 7, ChaosSeed: 7}
	base := draw(Config{Ranks: 4, Inject: armed})
	lossy := armed
	lossy.DropRate = 0.3
	for _, cfg := range []Config{
		{Ranks: 8, Inject: armed},
		{Ranks: 16, RanksPerNode: 2, Inject: armed},
		{Ranks: 4, Seed: 99, Inject: armed},
		{Ranks: 4, Inject: lossy},
	} {
		if got := draw(cfg); got != base {
			t.Fatalf("config %+v: rank 2's streams diverged: %#x != %#x", cfg, got, base)
		}
	}
}

package pipeline

import (
	"testing"

	"hipmer/internal/xrt"
)

// TestFingerprintGolden pins the checkpoint fingerprint of four run
// shapes: a checkpoint written by one binary must resume under the next,
// so removing a config field may not change a byte of what runFingerprint
// hashes. The digests were regenerated when the manifest moved to
// hipmer-ckpt/v5, which dropped the zero words of removed knobs and the
// oracle flag, and again at v6, v7, v8 and v9, since the schema string
// is hashed.
func TestFingerprintGolden(t *testing.T) {
	_, libs := SimulatedHuman(3, 1500, 8)
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2, Seed: 5})
	env := &stageEnv{team: team, libs: libs, res: &Result{}}
	if err := runIO(env); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"single-k", Config{K: 21}, "b20242bd6d1c62d1"},
		{"ladder", Config{KmerLens: []int{21, 33}}, "083009655e9e312f"},
		{"contigs-only", Config{K: 21, ContigsOnly: true}, "e8803cc529061bf2"},
		{"four-scaffold-rounds", Config{K: 21, ScaffoldRounds: 4}, "8edcdfd256f2673d"},
	}
	for _, c := range cases {
		got, err := runFingerprint(team, c.cfg.WithDefaults(), libs, env.readLibs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

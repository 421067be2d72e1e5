package pipeline

import (
	"testing"

	"hipmer/internal/xrt"
)

// TestFingerprintGolden pins the checkpoint fingerprint of four run
// shapes. The digests were generated at the commit before the
// single-valued knobs (Theta, HHMinCount) left Config: a checkpoint
// written by that binary must still resume under this one, so removing a
// config field may not change a byte of what runFingerprint hashes.
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
		{"single-k", Config{K: 21}, "3b308ed230405094"},
		{"ladder", Config{KmerLens: []int{21, 33}}, "c42df7223696b4f6"},
		{"contigs-only", Config{K: 21, ContigsOnly: true}, "d9c48395ae6621fb"},
		{"four-scaffold-rounds", Config{K: 21, ScaffoldRounds: 4}, "e13d92117303acb0"},
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

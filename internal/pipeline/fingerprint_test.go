package pipeline

import (
	"testing"

	"hipmer/internal/xrt"
)

// TestFingerprintGolden pins the checkpoint fingerprint of five run
// shapes: a checkpoint written by one binary must resume under the next,
// so removing a config field may not change a byte of what runFingerprint
// hashes. The digests were regenerated when the manifest moved to
// hipmer-ckpt/v5, which dropped the zero words of removed knobs and the
// oracle flag, and again at v6 and v7, since the schema string is hashed.
// An oracle placement moves only communication, so the oracle run
// fingerprints as the single-k run does.
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
		{"single-k", Config{K: 21}, "7ee18dfab838680b"},
		{"ladder", Config{KmerLens: []int{21, 33}}, "adb606c46dcef9bd"},
		{"contigs-only", Config{K: 21, ContigsOnly: true}, "b9db273a666fc6bc"},
		{"four-scaffold-rounds", Config{K: 21, ScaffoldRounds: 4}, "b45e93ac657f776f"},
		{"oracle", Config{K: 21, OracleContigs: [][]byte{[]byte("ACGTTGCAACGTAGCTAGCTAGGATCCA")}}, "7ee18dfab838680b"},
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

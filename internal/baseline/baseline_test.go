package baseline

import (
	"testing"

	"hipmer/internal/pipeline"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

func smallDataset(t *testing.T) ([]byte, []pipeline.Library) {
	t.Helper()
	g, libs := pipeline.SimulatedHuman(1, 15000, 25)
	return g, libs
}

func TestHipMerBeatsSerial(t *testing.T) {
	g, libs := smallDataset(t)
	pcfg := pipeline.Config{K: 31, MinCount: 3}
	hip, err := RunHipMer(xrt.Config{Ranks: 16, RanksPerNode: 4}, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunSerial(xrt.DefaultCostModel(), libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := ser.Virtual.Seconds() / hip.Virtual.Seconds()
	if speedup < 3 {
		t.Fatalf("HipMer speedup over serial only %.2fx at 16 ranks", speedup)
	}
	// both must assemble the genome
	for _, o := range []*Outcome{hip, ser} {
		// Alu-like repeats collapse, so ~12% of the reference is covered
		// by a single repeat copy
		if cov := verify.Place(o.FinalSeqs, g).CoveredFrac; cov < 0.78 {
			t.Fatalf("%s covers only %.3f", o.Name, cov)
		}
	}
}

func TestHipMerBeatsRayLike(t *testing.T) {
	g, libs := smallDataset(t)
	pcfg := pipeline.Config{K: 31, MinCount: 3}
	cfg := xrt.Config{Ranks: 16, RanksPerNode: 4}
	hip, err := RunHipMer(cfg, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ray, err := RunRayLike(cfg, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ray.Virtual <= hip.Virtual {
		t.Fatalf("Ray-like (%v) should be slower than HipMer (%v)", ray.Virtual, hip.Virtual)
	}
	if cov := verify.Place(ray.FinalSeqs, g).CoveredFrac; cov < 0.78 {
		t.Fatalf("Ray-like produces a bad assembly: %.3f", cov)
	}
}

func TestAbyssLikeScaffoldingDominates(t *testing.T) {
	_, libs := smallDataset(t)
	pcfg := pipeline.Config{K: 31, MinCount: 3}
	cfg := xrt.Config{Ranks: 16, RanksPerNode: 4}
	hip, err := RunHipMer(cfg, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := RunAbyssLike(cfg, libs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Virtual <= hip.Virtual {
		t.Fatalf("ABySS-like (%v) should be slower than HipMer (%v)", ab.Virtual, hip.Virtual)
	}
	// its single-node scaffolding must be much slower than HipMer's
	// distributed scaffolding
	if ab.Scaffolding.Seconds() < 2*hip.Scaffolding.Seconds() {
		t.Fatalf("serial scaffolding (%v) should be well behind HipMer's (%v)",
			ab.Scaffolding, hip.Scaffolding)
	}
}

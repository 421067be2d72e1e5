package hipmer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hipmer/internal/aligner"
	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/gapclose"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/pipeline"
	"hipmer/internal/scaffold"
	"hipmer/internal/sched"
	"hipmer/internal/verify"
	"hipmer/internal/xrt"
)

var update = flag.Bool("update", false, "rewrite testdata/options.txt")

// TestOptionCensus holds the exported fields of every options type — the
// knobs a run, a stage, a table or the service is configured through, and
// the cost model's settable calibration — to testdata/options.txt, so
// adding, removing or retyping one is a visible diff of that file.
// Regenerate with -update.
func TestOptionCensus(t *testing.T) {
	types := []struct {
		name string
		v    any
	}{
		{"hipmer.Options", Options{}},
		{"pipeline.Config", pipeline.Config{}},
		{"xrt.Config", xrt.Config{}},
		{"xrt.CostModel", xrt.CostModel{}},
		{"xrt.Inject", xrt.Inject{}},
		{"sched.Config", sched.Config{}},
		{"sched.LoadConfig", sched.LoadConfig{}},
		{"kanalysis.Options", kanalysis.Options{}},
		{"contig.Options", contig.Options{}},
		{"contig.CleanOptions", contig.CleanOptions{}},
		{"scaffold.Options", scaffold.Options{}},
		{"gapclose.Options", gapclose.Options{}},
		{"aligner.Options", aligner.Options{}},
		{"verify.Options", verify.Options{}},
		{"dht.Options[kmer.Kmer]", dht.Options[kmer.Kmer]{}},
	}
	var b strings.Builder
	for _, c := range types {
		var fields []string
		typ := reflect.TypeOf(c.v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				line := fmt.Sprintf("\t%s %s", f.Name, f.Type)
				if f.Anonymous {
					line += " (embedded)"
				}
				fields = append(fields, line)
			}
		}
		fmt.Fprintf(&b, "%s\n%s\n", c.name, strings.Join(fields, "\n"))
	}
	got := b.String()

	path := filepath.Join("testdata", "options.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the census (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("options differ from %s (regenerate with -update, and review the diff):\n%s", path, got)
	}
}

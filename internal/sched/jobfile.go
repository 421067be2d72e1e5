package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hipmer/internal/pipeline"
	"hipmer/internal/xrt"
)

// jobFileEntry is the on-disk JSON shape of one submitted job (see
// ParseJobFile).
type jobFileEntry struct {
	Tenant  string `json:"tenant"`
	Name    string `json:"name"`
	Dataset *struct {
		// Kind is human, wheat, or metagenome (simulated datasets).
		Kind     string  `json:"kind"`
		Len      int     `json:"len"`
		Coverage float64 `json:"coverage"`
		Species  int     `json:"species"`
		Pairs    int     `json:"pairs"`
		Seed     int64   `json:"seed"`
	} `json:"dataset"`
	Reads []struct {
		// Path to a FASTQ or .seqdb file (relative paths resolve against
		// the job file's directory).
		Path   string `json:"path"`
		Insert int    `json:"insert"`
	} `json:"reads"`
	K           int   `json:"k"`
	KmerLens    []int `json:"kmer_lens"`
	MinCount    int   `json:"min_count"`
	ContigsOnly bool  `json:"contigs_only"`
	Ranks       int   `json:"ranks"`
	Priority    int   `json:"priority"`
	ArrivalMs   int64 `json:"arrival_ms"`
	Seed        int64 `json:"seed"`
	// The injection keys (fault_seed, fail_stage, chaos_seed, drop_rate,
	// retry_budget, disk_fault_seed, disk_fail_stage, perturb_seed).
	xrt.Inject
}

// ParseJobFile reads a JSON job file (a list of job entries) into
// JobSpecs. Each entry names its tenant and either a simulated dataset
// ({"kind": "human", "len": 2000, "coverage": 12, "seed": 7}) or a list
// of read files ingested by the block reader. Arrival times are virtual
// milliseconds.
func ParseJobFile(path string) ([]JobSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sched: reading job file: %w", err)
	}
	var entries []jobFileEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, fmt.Errorf("sched: parsing job file %s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("sched: job file %s is empty", path)
	}
	dir := filepath.Dir(path)
	specs := make([]JobSpec, 0, len(entries))
	for i, e := range entries {
		if e.Tenant == "" {
			return nil, fmt.Errorf("sched: job %d: missing tenant", i)
		}
		spec := JobSpec{
			Tenant: e.Tenant,
			Name:   e.Name,
			Pipeline: pipeline.Config{
				K:           e.K,
				KmerLens:    e.KmerLens,
				MinCount:    e.MinCount,
				ContigsOnly: e.ContigsOnly,
			},
			Ranks:    e.Ranks,
			Priority: e.Priority,
			Arrival:  time.Duration(e.ArrivalMs) * time.Millisecond,
			Seed:     e.Seed,
			Inject:   e.Inject,
		}
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("job%d", i)
		}
		switch {
		case e.Dataset != nil:
			libs, err := datasetLibs(e.Dataset.Kind, e.Dataset.Seed, e.Dataset.Len,
				e.Dataset.Coverage, e.Dataset.Species, e.Dataset.Pairs)
			if err != nil {
				return nil, fmt.Errorf("sched: job %d (%s): %w", i, spec.Name, err)
			}
			spec.Libs = libs
			if e.Dataset.Kind == "metagenome" && e.KmerLens == nil {
				spec.Pipeline.ContigsOnly = true
			}
		case len(e.Reads) > 0:
			for _, rd := range e.Reads {
				p := rd.Path
				if !filepath.IsAbs(p) {
					p = filepath.Join(dir, p)
				}
				spec.Libs = append(spec.Libs, pipeline.Library{
					Name: filepath.Base(p), Path: p, InsertHint: rd.Insert,
				})
			}
		default:
			return nil, fmt.Errorf("sched: job %d (%s): needs dataset or reads", i, spec.Name)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func datasetLibs(kind string, seed int64, length int, coverage float64, species, pairs int) ([]pipeline.Library, error) {
	if seed == 0 {
		seed = 1
	}
	switch kind {
	case "human":
		if length <= 0 {
			length = 2000
		}
		if coverage <= 0 {
			coverage = 12
		}
		_, libs := pipeline.SimulatedHuman(seed, length, coverage)
		return libs, nil
	case "wheat":
		if length <= 0 {
			length = 3000
		}
		if coverage <= 0 {
			coverage = 12
		}
		_, libs := pipeline.SimulatedWheat(seed, length, coverage)
		return libs, nil
	case "metagenome":
		if length <= 0 {
			length = 12000
		}
		if species <= 0 {
			species = 6
		}
		if pairs <= 0 {
			pairs = 900
		}
		return pipeline.SimulatedMetagenome(seed, length, species, pairs), nil
	default:
		return nil, fmt.Errorf("unknown dataset kind %q (want human, wheat, or metagenome)", kind)
	}
}

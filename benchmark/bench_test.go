package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// quickEnv is the -quick sizing in a scratch directory inside the test's
// temp dir. No test here asserts on a wall-clock quantity.
func quickEnv(t *testing.T) *env {
	return &env{seed: 7, quick: true, seconds: 0, dir: t.TempDir(), minRunSamples: 1}
}

// TestManifestMatchesTables: BENCHMARK.json at the repository root is what
// -manifest prints, and stays inside the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go / harness.go; regenerate it with -manifest")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is outside the manifest's limits", d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed 128 / 16", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %s is outside the manifest's limits", w.name)
		}
		seen[w.name] = true
	}
}

// TestQuickWorkloads runs all four workloads at the -quick sizing, both
// passes, and checks what they emit.
func TestQuickWorkloads(t *testing.T) {
	// Layers that must be idle (reported as filler zeros) on a workload.
	idle := map[string][]string{
		"human_e2e":      {"sched.", "ckpt.", "seqdb.", "verify.meta_"},
		"wheat_scaffold": {"sched.", "fastq.", "seqdb.", "verify.meta_"},
		"meta_multik":    {"sched.", "ckpt.", "fastq.", "scaffold.", "gapclose.", "aligner.", "verify.misassemblies", "verify.gap_violations"},
		"serve_mix":      {"seqdb.", "verify.meta_"},
	}
	file := &runFile{Schema: runSchema, Seed: 7, Quick: true}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e2e, err := runWorkload(w, quickEnv(t), false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d: %v", e2e.Correct, e2e.Failed, e2e.Attempted, e2e.Problems)
			}
			checkEmitted(t, e2e.EndToEnd, endToEnd, nil)
			for n, s := range e2e.EndToEnd {
				if s.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, must never be 0", n, s.Value)
				}
			}

			tracePath := filepath.Join(t.TempDir(), "trace.json")
			layers, err := runWorkload(w, quickEnv(t), true, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			// A correct traced run implies the stage driver reproduced
			// hipmer.Assemble's digest and the spans nest (runWorkload
			// fails the run otherwise).
			if !layers.Correct {
				t.Fatalf("traced run: %v", layers.Problems)
			}
			checkEmitted(t, layers.PerLayer, perLayer, idle[w.name])

			var doc struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Args map[string]any
				}
			}
			b, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
			}
			ids := map[float64]bool{}
			for _, ev := range doc.TraceEvents {
				ids[ev.Args["id"].(float64)] = true
			}
			for _, ev := range doc.TraceEvents {
				if p := ev.Args["parent"].(float64); p >= 0 && !ids[p] {
					t.Errorf("span %q has unresolved parent %v", ev.Name, p)
				}
			}

			e2e.PerLayer = layers.PerLayer
			file.Workloads = append(file.Workloads, e2e)
			line := resultLine(layers)
			var parsed map[string]any
			if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("result line is not an object of four keys: %s", line)
			}
		})
	}

	// A run compared with itself is within every bound.
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeRunFile(path, file); err != nil {
		t.Fatal(err)
	}
	if ok, err := compareFiles(io.Discard, path, path); err != nil || !ok {
		t.Errorf("-compare of a file with itself: ok=%v err=%v", ok, err)
	}
}

// checkEmitted: got holds exactly the declared metrics with their declared
// units; those whose name starts with an idle prefix are fillers (N == 0),
// all others were measured.
func checkEmitted(t *testing.T, got map[string]sample, defs []metricDef, idle []string) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(defs))
	}
	for _, d := range defs {
		s, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s was not emitted", d.Name)
			continue
		}
		if s.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, declared %q", d.Name, s.Unit, d.Unit)
		}
		wantIdle := false
		for _, p := range idle {
			wantIdle = wantIdle || strings.HasPrefix(d.Name, p)
		}
		if wantIdle != (s.N == 0) {
			t.Errorf("metric %s: idle=%v, want %v", d.Name, s.N == 0, wantIdle)
		}
	}
}

// TestCompareFlagsRegression: -compare fails on a metric beyond its bound
// and on failed operations.
func TestCompareFlagsRegression(t *testing.T) {
	mk := func(wall float64, failed int) string {
		rep := &report{Workload: "human_e2e", Correct: failed == 0, Attempted: 5, Failed: failed, EndToEnd: map[string]sample{}}
		for _, d := range endToEnd {
			rep.EndToEnd[d.Name] = sample{Value: 1, Unit: d.Unit, N: 1}
		}
		rep.EndToEnd["wall_s"] = sample{Value: wall, Unit: "s", N: 1}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeRunFile(path, &runFile{Schema: runSchema, Workloads: []*report{rep}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, 0)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, base, mk(1.05, 0)); err != nil || !ok {
		t.Errorf("5 %% slower must pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, _ := compareFiles(&out, base, mk(1.5, 0)); ok {
		t.Error("50 % slower must fail")
	}
	if ok, _ := compareFiles(&out, base, mk(1, 1)); ok {
		t.Error("a failed operation must fail the comparison")
	}
}

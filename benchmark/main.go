// Command benchmark measures the assembler and the hipmerd service end to
// end and layer by layer, from outside, on four workloads. See README.md.
//
//	bash benchmark/run.sh                     all workloads, both passes
//	bash benchmark/run.sh --workload human_e2e --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// runFile is what -out writes and -compare reads.
type runFile struct {
	Schema     string    `json:"schema"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Quick      bool      `json:"quick"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Workloads  []*report `json:"workloads"`
}

const runSchema = "hipmer-bench/v1"

func main() {
	var (
		name     = flag.String("workload", "", "run one workload in this process (default: all four, one child process each)")
		seed     = flag.Int64("seed", defaultSeed, "seeds the reads of every dataset; the program under test sees only the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long the untraced operations are measured")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		out      = flag.String("out", "", "write every metric as JSON to this file")
		traceOut = flag.String("trace-out", "", "prefix of the Chrome trace-event files, one per workload (default .bench_build/trace-)")
		quick    = flag.Bool("quick", false, "smoke sizing: 20 kbp genomes, 10 jobs, one operation")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit non-zero beyond a bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace-")
	}
	file := &runFile{Schema: runSchema, Seed: *seed, Seconds: *seconds, Quick: *quick, GoMaxProcs: procs}

	if *name == "" {
		ok := runAll(file, *trace, *traceOut)
		if err := writeRunFile(*out, file); err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatal("-workload needs -trace 0 or -trace 1")
	}
	fmt.Printf("%-15s GOMAXPROCS=%d seed=%d seconds=%g quick=%v trace=%d\n", w.name, procs, *seed, *seconds, *quick, *trace)
	rep, err := runOne(w, *seed, *seconds, *quick, *trace == 1, *traceOut+w.name+".json")
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	file.Workloads = []*report{rep}
	if err := writeRunFile(*out, file); err != nil {
		fatal("%v", err)
	}
	for _, p := range rep.Problems {
		fmt.Printf("%-15s FAILED: %s\n", w.name, p)
	}
	os.Stdout.Write(append(resultLine(rep), '\n'))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload in this process inside a scratch directory of
// its own under .bench_build/.
func runOne(w *workload, seed int64, seconds float64, quick, traced bool, traceOut string) (*report, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed: seed, quick: quick, seconds: seconds, dir: dir,
		replay:        time.Duration(seconds * float64(time.Second) / 40),
		minRunSamples: 200,
	}
	if quick {
		e.replay, e.minRunSamples = 0, 1
	}
	return runWorkload(w, e, traced, traceOut)
}

// resultLine is the last line of a single-workload run: the metrics of the
// pass that ran, by name, each with its value and unit.
func resultLine(rep *report) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, set := range []map[string]sample{rep.EndToEnd, rep.PerLayer} {
		for n, s := range set {
			metrics[n] = metric{s.Value, s.Unit}
		}
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal("%v", err)
	}
	return b
}

// runAll runs every workload in a child process of its own — so peak RSS
// and heap state do not depend on workload order — once per pass, and
// merges the children's reports.
func runAll(file *runFile, trace int, traceOut string) bool {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal("%v", err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "reports-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(tmp)
	passes := []int{0, 1}
	if trace == 0 || trace == 1 {
		passes = []int{trace}
	}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		merged := &report{Workload: w.name, Correct: true}
		for _, pass := range passes {
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, pass))
			args := []string{
				"-workload", w.name, "-trace", strconv.Itoa(pass), "-out", path, "-trace-out", traceOut,
				"-seed", strconv.FormatInt(file.Seed, 10), "-seconds", strconv.FormatFloat(file.Seconds, 'g', -1, 64),
			}
			if file.Quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			// Everything but the child's final JSON line is the table.
			if i := bytes.LastIndexByte(bytes.TrimRight(stdout, "\n"), '\n'); i >= 0 {
				os.Stdout.Write(stdout[:i+1])
			}
			child, readErr := readRunFile(path)
			if readErr != nil || len(child.Workloads) != 1 {
				fmt.Printf("%-15s FAILED: pass %d left no report (%v)\n", w.name, pass, runErr)
				merged.Correct = false
				continue
			}
			rep := child.Workloads[0]
			merged.Correct = merged.Correct && rep.Correct
			merged.Noisy = merged.Noisy || rep.Noisy
			merged.Problems = append(merged.Problems, rep.Problems...)
			if pass == 0 || len(passes) == 1 {
				merged.Attempted, merged.Failed = rep.Attempted, rep.Failed
			}
			if rep.EndToEnd != nil {
				merged.EndToEnd = rep.EndToEnd
			}
			if rep.PerLayer != nil {
				merged.PerLayer = rep.PerLayer
			}
		}
		ok = ok && merged.Correct
		file.Workloads = append(file.Workloads, merged)
	}
	return ok
}

func writeRunFile(path string, f *runFile) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != runSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, runSchema)
	}
	return &f, nil
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	return append(b, '\n')
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hipmer"
)

// cliEnv switches the test binary into the hipmer command: TestMain runs
// main() instead of the tests when it is set, so the end-to-end tests
// re-execute their own binary and build nothing.
const cliEnv = "HIPMER_CLI_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main() // every path through main exits
	}
	os.Exit(m.Run())
}

// hipmerCLI runs the command with args and returns its exit code and
// combined output.
func hipmerCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("running hipmer %v: %v", args, err)
	}
	return 0, string(out)
}

// copyDir copies a checkpoint directory's files.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCLIExitCodeContract drives the exit codes of the package comment
// through real runs on a small simulated FASTQ: a crash is 3 and resumes
// at another rank count into the from-scratch assembly at that count, a
// -resume without -ranks adopts the recorded count, changed options are
// 5 and a garbage manifest is 8.
func TestCLIExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	f, err := os.Create(path("reads.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	lib := hipmer.SimReads(4, hipmer.RandomGenome(3, 6000), 20, 100, 300, 20)
	if err := hipmer.WriteFastq(f, lib); err != nil {
		t.Fatal(err)
	}
	f.Close()
	run := func(want int, args ...string) {
		t.Helper()
		args = append([]string{"-reads", path("reads.fastq") + ",300", "-k", "21", "-ranks-per-node", "2"}, args...)
		if code, out := hipmerCLI(t, args...); code != want {
			t.Fatalf("hipmer %v: exit %d, want %d\n%s", args, code, want, out)
		}
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	run(3, "-ranks", "8", "-ckpt-dir", path("ck"), "-fault-seed", "11", "-fail-stage", "scaffolding", "-out", path("crash.fasta"))
	copyDir(t, path("ck"), path("ck8"))

	run(0, "-ranks", "4", "-ckpt-dir", path("ck"), "-resume", "-out", path("resumed.fasta"))
	run(0, "-ranks", "4", "-out", path("scratch.fasta"))
	if !bytes.HasPrefix(read("scratch.fasta"), []byte(">scaffold_1")) {
		t.Fatal("the 4-rank run assembled nothing")
	}
	if !bytes.Equal(read("resumed.fasta"), read("scratch.fasta")) {
		t.Fatal("resume at 4 ranks differs from the from-scratch 4-rank FASTA")
	}

	run(0, "-ckpt-dir", path("ck8"), "-resume", "-out", path("adopted.fasta"), "-metrics-out", path("adopted.json"))
	var rep struct{ Ranks int }
	if err := json.Unmarshal(read("adopted.json"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 8 {
		t.Fatalf("resume without -ranks ran at %d ranks, want the recorded 8", rep.Ranks)
	}

	run(5, "-ckpt-dir", path("ck8"), "-resume", "-min-count", "3", "-out", path("refused.fasta"))

	if err := os.WriteFile(filepath.Join(path("ck8"), "MANIFEST.json"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	run(8, "-ckpt-dir", path("ck8"), "-resume", "-out", path("garbage.fasta"))
	run(8, "-ranks", "4", "-ckpt-dir", path("ck8"), "-resume", "-out", path("garbage.fasta"))
}

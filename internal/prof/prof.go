// Package prof gives the command-line tools their two profiling flags,
// -cpuprofile and -memprofile, so that "where does the wall time go" is
// one command plus `go tool pprof` instead of a hand-written harness.
package prof

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the flag values and the open CPU profile.
type Profiles struct {
	cpuPath, memPath *string
	cpuFile          *os.File
}

// Flags registers -cpuprofile and -memprofile on the default flag set; call
// before flag.Parse.
func Flags() *Profiles {
	return &Profiles{
		cpuPath: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memPath: flag.String("memprofile", "", "write an allocation profile (all allocations since start, after a final GC) to this file at exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given; call after
// flag.Parse.
func (p *Profiles) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the allocation profile. It must
// run before the process exits — os.Exit skips deferred calls — and is
// safe to call more than once.
func (p *Profiles) Stop() error {
	var firstErr error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		firstErr = p.cpuFile.Close()
		p.cpuFile = nil
	}
	if path := *p.memPath; path != "" {
		*p.memPath = ""
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC() // flush recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Exit stops the profiles and exits with code (1 instead of 0 when a
// profile could not be written). A tool with profiling flags exits through
// it everywhere after Start.
func (p *Profiles) Exit(code int) {
	if err := p.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

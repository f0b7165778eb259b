package cliflag

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the values of the shared pprof flags: -cpuprofile and
// -memprofile on mbchar, mbcluster, mbsim and mbcalibrate. Profiles are written
// with plain os.Create — not the atomic-write path — because a profile is a
// diagnostic artifact, not a dataset: a torn profile from a crashed run is
// useless either way, and pprof owns the file handle for the whole run.
// Each of the two os.Create calls carries an //mblint:ignore atomicwrite
// line giving that reason.
type Profile struct {
	// CPUPath is the -cpuprofile output file ("" disables CPU profiling).
	CPUPath string
	// MemPath is the -memprofile output file ("" disables the heap dump).
	MemPath string

	cpuFile *os.File
}

// RegisterProfile registers the profiling flags on fs and returns the
// value holder; read it after fs.Parse.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPUPath, "cpuprofile", "",
		"write a pprof CPU profile of the whole invocation to this file")
	fs.StringVar(&p.MemPath, "memprofile", "",
		"write a pprof heap profile to this file at exit")
	return p
}

// Start begins CPU profiling when -cpuprofile was given. Callers must pair
// it with Stop before exiting. A nil Profile profiles nothing.
func (p *Profile) Start() error {
	if p == nil || p.CPUPath == "" {
		return nil
	}
	//mblint:ignore atomicwrite a CPU profile is a diagnostic that pprof streams into for the whole run; a torn one is useless either way
	f, err := os.Create(p.CPUPath)
	if err != nil {
		return fmt.Errorf("cliflag: -cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cliflag: -cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, in that order.
// It is safe to call when neither flag was given, and on a nil Profile.
func (p *Profile) Stop() error {
	if p == nil {
		return nil
	}
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("cliflag: -cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.MemPath == "" {
		return nil
	}
	//mblint:ignore atomicwrite a heap profile is a diagnostic, not a dataset; a torn one is useless either way
	f, err := os.Create(p.MemPath)
	if err != nil {
		return fmt.Errorf("cliflag: -memprofile: %w", err)
	}
	defer f.Close()
	// Materialize a settled heap picture: allocs-in-flight from the just
	// finished pipeline would otherwise dominate the live-object profile.
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("cliflag: -memprofile: %w", err)
	}
	return nil
}

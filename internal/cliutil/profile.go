package cliutil

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags registers -cpuprofile and -memprofile on fs and returns the
// function to call after fs.Parse: it starts the CPU profile and returns
// stop, which ends it and writes the heap profile. Both files are side
// outputs for `go tool pprof`; nothing a run prints, traces or digests
// depends on them.
func ProfileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read with go tool pprof)")
	mem := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpuFile = f
		}
		return func() error {
			var err error
			if cpuFile != nil {
				pprof.StopCPUProfile()
				err = cpuFile.Close()
			}
			if *mem != "" {
				err = errors.Join(err, writeHeapProfile(*mem))
			}
			return err
		}, nil
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports what the last collection saw
	err = pprof.WriteHeapProfile(f)
	return errors.Join(err, f.Close())
}

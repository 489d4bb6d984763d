package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts the profiles whose path is not empty and returns
// the function that stops them and writes the files. CPU samples at the
// runtime's 100 Hz; the mutex and block profiles record every contended
// unlock and every blocking event (rate 1, as `go test` does), which slows
// a contended run down — take them in runs of their own, not in the run
// whose throughput is reported. Read any of them with `go tool pprof`.
func startProfiles(cpu, mutex, block string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if mutex != "" {
			errs = append(errs, writeProfile("mutex", mutex))
			runtime.SetMutexProfileFraction(0)
		}
		if block != "" {
			errs = append(errs, writeProfile("block", block))
			runtime.SetBlockProfileRate(0)
		}
		return errors.Join(errs...)
	}, nil
}

// writeProfile writes the named runtime profile to path.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write %s profile: %w", name, err)
	}
	return f.Close()
}

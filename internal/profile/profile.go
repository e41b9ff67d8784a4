// Package profile records the on-demand CPU profile and execution trace
// that cmd/study and cmd/fi expose as -cpuprofile and -exectrace. Both
// are the standard library's formats: read them with `go tool pprof` and
// `go tool trace`.
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins a CPU profile written to cpuPath and an execution trace
// written to tracePath; an empty path skips that recording. The returned
// function stops both and closes their files.
func Start(cpuPath, tracePath string) (stop func() error, err error) {
	var stops []func() error
	stopAll := func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			errs = append(errs, stops[i]())
		}
		return errors.Join(errs...)
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("execution trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stopAll()
			return nil, fmt.Errorf("execution trace: %w", err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	return stopAll, nil
}

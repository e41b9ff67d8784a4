package study

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one campaign of a study's schedule.
type job struct {
	// log, when non-empty, is the progress line written as the job is
	// dispatched.
	log string
	// run executes the campaign and stores its result in a slot the
	// job's builder allocated, so results land in schedule order however
	// the jobs interleave.
	run func() error
}

// runJobs runs jobs in order with at most limit in flight (limit <= 0
// selects GOMAXPROCS; 1 runs them one after another). Each campaign keeps
// its own worker pool, so one campaign's tail overlaps the next one's
// work instead of leaving cores idle at every campaign boundary.
//
// Progress lines are written by the calling goroutine as each job is
// dispatched, never concurrently by the jobs, so they keep schedule
// order. After the first failure no further job starts; the jobs already
// in flight finish, and every failure is returned (errors.Join), as the
// engine does for its workers.
func runJobs(limit int, log io.Writer, jobs []job) error {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	var (
		slots  = make(chan struct{}, limit)
		wg     sync.WaitGroup
		failed atomic.Bool
		errMu  sync.Mutex
		errs   []error
	)
	for _, j := range jobs {
		// A failing job records its failure before it frees its slot, so
		// the failure is visible here once the slot is acquired.
		slots <- struct{}{}
		if failed.Load() {
			break
		}
		if j.log != "" {
			logf(log, "%s", j.log)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.run(); err != nil {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
				failed.Store(true)
			}
			<-slots
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

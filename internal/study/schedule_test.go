package study

// The campaign scheduler (internal test: the seams are runJobs and the
// runCampaign/runStuckAt package variables).

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/vm"
)

// serialWriter fails the test if two Writes overlap, and keeps the lines.
type serialWriter struct {
	t      *testing.T
	busy   atomic.Bool
	mu     sync.Mutex
	output strings.Builder
}

func (w *serialWriter) Write(p []byte) (int, error) {
	if !w.busy.CompareAndSwap(false, true) {
		w.t.Error("progress lines written concurrently")
	}
	defer w.busy.Store(false)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.output.Write(p)
}

func TestRunJobsLogsInScheduleOrder(t *testing.T) {
	w := &serialWriter{t: t}
	var jobs []job
	var want strings.Builder
	for i := 0; i < 12; i++ {
		line := strings.Repeat("x", i+1)
		want.WriteString(line + "\n")
		jobs = append(jobs, job{log: line, run: func() error {
			time.Sleep(time.Duration(12-i) * time.Millisecond)
			return nil
		}})
	}
	if err := runJobs(3, w, jobs); err != nil {
		t.Fatal(err)
	}
	if got := w.output.String(); got != want.String() {
		t.Fatalf("progress lines out of schedule order:\n%s", got)
	}
}

func TestRunJobsBoundsInFlight(t *testing.T) {
	for _, limit := range []int{1, 2, 3} {
		var inFlight, peak atomic.Int64
		jobs := make([]job, 10)
		for i := range jobs {
			jobs[i].run = func() error {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inFlight.Add(-1)
				return nil
			}
		}
		if err := runJobs(limit, nil, jobs); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(limit) {
			t.Errorf("limit %d: %d jobs in flight", limit, p)
		}
	}
}

// TestRunJobsStopsAfterFailure holds one job in flight while its sibling
// fails: the freed slot must not start another job, and the held job
// still finishes before runJobs returns.
func TestRunJobsStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	release := make(chan struct{})
	failing := make(chan struct{})
	var heldDone atomic.Bool
	var started []int
	var mu sync.Mutex
	start := func(i int) {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
	}
	jobs := []job{
		{run: func() error { start(0); <-release; heldDone.Store(true); return nil }},
		{run: func() error { start(1); close(failing); return boom }},
	}
	for i := 2; i < 6; i++ {
		jobs = append(jobs, job{run: func() error { start(i); return nil }})
	}
	go func() {
		// Give the failure time to land before the held slot frees.
		<-failing
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	err := runJobs(2, nil, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("runJobs returned %v, want the failure", err)
	}
	if !heldDone.Load() {
		t.Error("runJobs returned before the in-flight job finished")
	}
	if len(started) != 2 {
		t.Errorf("started jobs %v, want only the two dispatched before the failure", started)
	}
}

func TestRunJobsJoinsConcurrentFailures(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var barrier sync.WaitGroup
	barrier.Add(2)
	fail := func(err error) func() error {
		return func() error {
			barrier.Done()
			barrier.Wait()
			return err
		}
	}
	err := runJobs(2, nil, []job{{run: fail(errA)}, {run: fail(errB)}, {run: func() error { return nil }}})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("runJobs returned %v, want both failures", err)
	}
}

// panicClassifier panics on every output it is asked to judge.
type panicClassifier struct{}

func (panicClassifier) Name() string { return "panic" }

func (panicClassifier) Classify([]byte, *vm.Result) core.Outcome {
	panic("classifier test panic")
}

// TestRunFailFastStopsCampaigns gives the inject-on-write campaigns a
// panicking classifier under FailFast: study.Run must return that
// failure, must not hang, and must start no campaign once it has failed.
func TestRunFailFastStopsCampaigns(t *testing.T) {
	origCampaign, origStuckAt := runCampaign, runStuckAt
	defer func() { runCampaign, runStuckAt = origCampaign, origStuckAt }()
	var started atomic.Int64
	runCampaign = func(spec core.CampaignSpec) (*core.CampaignResult, error) {
		started.Add(1)
		if spec.Technique == core.InjectOnWrite {
			spec.Classifier = panicClassifier{}
		}
		return core.RunCampaign(spec)
	}
	runStuckAt = func(spec core.StuckAtSpec) (*core.StuckAtResult, error) {
		started.Add(1)
		return core.RunStuckAt(spec)
	}

	opts := Options{
		N:        40,
		Seed:     1,
		Programs: []string{"CRC32"},
		MaxMBFs:  []int{2, 3, 10, 30},
		WinSizes: []core.WinSize{core.Win(0), core.Win(1), core.Win(4), core.WinRange(11, 100), core.Win(1000)},
	}
	grid := len(opts.MaxMBFs) * len(opts.WinSizes)
	// The schedule: read single, read grid, write single, write grid,
	// stuck-at. The write single-bit campaign is the first to fail.
	total, firstFailing := int64(2*(1+grid)+1), int64(1+grid+1)
	for _, workers := range []int{1, 0} {
		started.Store(0)
		opts.Workers = workers
		done := make(chan error, 1)
		go func() {
			_, err := Run(opts)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("workers=%d: study.Run hung after a campaign failed", workers)
		}
		if err == nil || !strings.Contains(err.Error(), "classifier test panic") {
			t.Fatalf("workers=%d: study.Run returned %v, want the classifier panic", workers, err)
		}
		n := started.Load()
		if workers == 1 && n != firstFailing {
			t.Errorf("serial study started %d campaigns, want %d (none after the failing one)", n, firstFailing)
		}
		if n < firstFailing || n >= total {
			t.Errorf("workers=%d: started %d campaigns, want at least %d and fewer than %d", workers, n, firstFailing, total)
		}
	}
}

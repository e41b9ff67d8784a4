package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a module's public function, recorded from
// the benchmark's side of the call. Spans nest: Parent is the span that
// was open when this one began (0 at top level).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Key labels the call's subject: a program, a campaign, a variant.
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// N is the number of experiments the call ran, when it ran any.
	N int `json:"n,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer times every call the benchmark makes into the program. Calls
// are always timed (the end-to-end metrics need the durations); spans
// are kept, in memory, only while recording is on. The benchmark is a
// closed loop with one caller, so the open spans form a stack.
type tracer struct {
	run   string
	t0    time.Time
	on    bool
	spans []span
	open  []int // indices into spans of the open recorded spans
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// call runs fn inside a span named name and returns its duration. n is
// the number of experiments fn runs (0 when it runs none).
func (t *tracer) call(name, key string, n int, fn func() error) (time.Duration, error) {
	idx := -1
	if t.on {
		parent := 0
		if len(t.open) > 0 {
			parent = t.spans[t.open[len(t.open)-1]].ID
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
			Name: name, Key: key, N: n})
		idx = len(t.spans) - 1
		t.open = append(t.open, idx)
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	if idx >= 0 {
		t.open = t.open[:len(t.open)-1]
		t.spans[idx].Start = start.Sub(t.t0).Nanoseconds()
		t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
	}
	return end.Sub(start), err
}

// durs returns the durations of the recorded spans named name, in
// recording order.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover. Children of one
// parent never overlap (one caller), so the covered part is their sum.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			child[p] += t.spans[i].dur()
		}
	}
	self := make(map[string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		self[s.Name] += (s.dur() - child[s.ID]).Seconds()
	}
	return self
}

// write stores the spans as JSON lines, followed by one summary line
// with the per-name self times, under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := enc.Encode(map[string]any{"run": t.run, "self_s": t.selfTimes()}); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

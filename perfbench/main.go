// Command perfbench is the repository benchmark: it runs one campaign
// workload for a fixed time, checks every campaign's recorded outcomes
// against stored reference digests, and prints the metrics as the last
// line of standard output:
//
//	bash perfbench/run.sh --workload study-grid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call it makes into the program, writes them
// to .bench_build/traces, and prints the per-layer metrics. Campaigns
// run as a closed loop with one caller: the next call starts when the
// previous one returns, and each campaign uses the engine's default
// worker count (GOMAXPROCS).
//
// perfbench --write-reference regenerates the reference digests of a
// workload (see mkref.sh, which switches every tier off).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
)

const (
	// setupReps is the number of times a run prepares its targets;
	// setup_s is the median.
	setupReps = 9
	// minPasses is the fewest measured passes a run makes, however long
	// they take; a traced run, which alternates traced and untraced
	// passes, makes one more.
	minPasses = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	w *workload
	// seed is the input seed (the --seed argument folded into the
	// referenced range).
	seed uint64
	// off switches every tier off (reference mode).
	off bool
	tr  *tracer
	cls *countingClassifier
	// tmp is a private scratch directory inside the checkout.
	tmp     string
	progs   map[string]*ir.Program
	targets map[string]*core.Target

	attempted, failed int
	mismatch          []string
}

// countingClassifier is the default exact classifier with a call counter
// and a timer. Its name is "exact", so campaign fingerprints and journal
// addresses do not move when the traced run installs it.
type countingClassifier struct {
	calls, ns atomic.Int64
}

func (c *countingClassifier) Name() string { return "exact" }

func (c *countingClassifier) Classify(golden []byte, res *vm.Result) core.Outcome {
	start := time.Now()
	o := core.ExactClassifier{}.Classify(golden, res)
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
	return o
}

// classifier returns the classifier campaigns use: the counting one
// while spans are recorded, else the engine default.
func (b *bench) classifier() core.Classifier {
	if b.tr.on {
		return b.cls
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		refDir   = flag.String("refdir", "perfbench/reference", "reference digest directory")
		workDir  = flag.String("workdir", ".bench_build", "scratch directory; spans go to its traces/ subdirectory")
		writeRef = flag.Bool("write-reference", false, "regenerate the workload's reference digests (every tier must be off)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *writeRef {
		if err := writeReference(w, *refDir, *workDir); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *refDir, *workDir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func newBench(w *workload, seed uint64, run, workDir string) (*bench, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(workDir, "tmp-")
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, tr: newTracer(run), cls: &countingClassifier{}, tmp: tmp}, nil
}

// setup builds and prepares the workload's programs once, returning the
// time spent in Bench.Build and core.NewTarget.
func (b *bench) setup() (build, prepare time.Duration, err error) {
	b.progs = map[string]*ir.Program{}
	b.targets = map[string]*core.Target{}
	for _, name := range b.w.programs {
		bm, err := prog.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		var p *ir.Program
		d, err := b.tr.call("prog.Build", name, 0, func() (err error) {
			p, err = bm.Build()
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		build += d
		var t *core.Target
		opts := core.TargetOptions{NoSnapshots: b.off, NoFusion: b.off, NoCompile: b.off, NoConverge: b.off, NoLiveness: b.off}
		d, err = b.tr.call("core.NewTarget", name, 0, func() (err error) {
			t, err = core.NewTargetOpts(name, p, opts)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		prepare += d
		b.progs[name], b.targets[name] = p, t
	}
	return build, prepare, nil
}

// run performs one benchmark run: set-up, the measured passes, the
// correctness gate and, when traced, the layer probes.
func run(w *workload, seed uint64, seconds time.Duration, traced bool, refDir, workDir string) (*result, error) {
	ref, err := loadReference(refDir, w)
	if err != nil {
		return nil, err
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, seed, b2i(traced), time.Now().UnixNano())
	b, err := newBench(w, seed%refSeeds, runID, workDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.tmp)
	want, err := ref.forSeed(b.seed)
	if err != nil {
		return nil, err
	}

	b.tr.on = traced
	var setups, builds, prepares []float64
	for i := 0; i < setupReps; i++ {
		var bd, pd time.Duration
		_, err := b.tr.call("setup", "", 0, func() (err error) {
			bd, pd, err = b.setup()
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, (bd + pd).Seconds())
		builds = append(builds, bd.Seconds())
		prepares = append(prepares, pd.Seconds())
	}

	// The measured phase. A traced run alternates traced and untraced
	// passes, so the tracing overhead is measured within one process.
	var (
		walls, tracedWalls, resumes, rss []float64
		first                            *passResult
		exps                             int
		campaign                         time.Duration
		journalDir                       string
	)
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minPasses+b2i(traced) && time.Since(start) >= seconds {
			break
		}
		// Every pass starts from a collected heap and a reset peak-RSS
		// counter, so its peak is its own.
		runtime.GC()
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		b.tr.on = traced && i%2 == 0
		var r *passResult
		if _, err := b.tr.call("pass", strconv.Itoa(i), 0, func() (err error) {
			r, err = w.pass(b)
			return err
		}); err != nil {
			return nil, err
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		if b.tr.on {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		} else {
			walls = append(walls, r.wall.Seconds())
			rss = append(rss, peak)
			exps += r.col.experiments
			campaign += r.campaign
		}
		if r.resume > 0 {
			resumes = append(resumes, r.resume.Seconds())
		}
		if r.journalDir != "" {
			if journalDir != "" {
				os.RemoveAll(journalDir)
			}
			journalDir = r.journalDir
		}
		// The gate: against the reference, and every pass against the
		// first (determinism across passes, including the exact counters).
		got := r.col.digests()
		b.attempted += r.col.experiments
		b.failed += r.col.quarantined
		failed, bad := gate(want, got, r.col.sizes)
		b.failed += failed
		b.mismatch = append(b.mismatch, bad...)
		if first == nil {
			first = r
		} else if r.col.pruned != first.col.pruned {
			b.failed += r.col.experiments
			b.mismatch = append(b.mismatch, fmt.Sprintf("pass %d: statically pruned %d, first pass %d", i, r.col.pruned, first.col.pruned))
		}
	}
	b.tr.on = false
	if w.name == "study-journaled" {
		// The journaled passes must also record what the in-memory study
		// records.
		s, _, err := b.runStudy(b.studyOptions(quickMaxMBFs, quickWins), "memory/")
		if err != nil {
			return nil, err
		}
		mem := newCollector()
		collectStudy(mem, s)
		failed, bad := gate(mem.digests(), first.col.digests(), first.col.sizes)
		b.failed += failed
		b.mismatch = append(b.mismatch, prefixAll("in-memory/", bad)...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, untraced pass walls %v\n", w.name, seed, len(walls)+len(tracedWalls), walls)
	for _, m := range b.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: digest mismatch:", m)
	}

	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0 && len(b.mismatch) == 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !traced {
		put("setup_s", median(setups), "s")
		put("wall_s", median(walls), "s")
		put("experiments_per_s", float64(exps)/campaign.Seconds(), "1/s")
		put("peak_rss_mb", median(rss), "MiB")
		return res, nil
	}

	// The classifier counts cover the traced passes only: the probes
	// below run campaigns too.
	tracedPasses := float64(len(tracedWalls))
	put("core.classify_calls", float64(b.cls.calls.Load())/tracedPasses, "count")
	put("core.classify_s", time.Duration(b.cls.ns.Load()).Seconds()/tracedPasses, "s")
	b.tr.on = true
	p := &probeSet{b: b, put: put, journalDir: journalDir, resumes: resumes}
	if err := p.run(); err != nil {
		return nil, err
	}
	b.tr.on = false
	put("prog.build_s", median(builds), "s")
	put("core.prepare_s", median(prepares), "s")
	c := first.col
	frac := func(k int) float64 { return float64(k) / float64(c.experiments) }
	put("core.pruned_frac", frac(c.pruned), "ratio")
	put("core.converged_frac.nonexact", frac(c.converged), "ratio")
	put("core.memo_hit_frac.nonexact", frac(c.memo), "ratio")
	put("core.hang_frac", frac(c.hang), "ratio")
	put("core.crash_frac", frac(c.crash), "ratio")
	put("core.quarantined", float64(c.quarantined), "count")
	put("trace.overhead_frac", median(tracedWalls)/median(walls)-1, "ratio")
	put("failed_frac", float64(b.failed)/float64(b.attempted), "ratio")
	path, err := b.tr.write(filepath.Join(workDir, "traces"))
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return res, nil
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// writeReference runs one pass per referenced seed with every tier
// switched off and stores the digests. The process-wide kill switches
// must be set: study options cannot switch fusion off.
func writeReference(w *workload, dir, workDir string) error {
	for _, v := range []string{"MULTIFLIP_NOFUSE", "MULTIFLIP_NOCOMPILE", "MULTIFLIP_NOCONVERGE", "MULTIFLIP_NOLIVENESS"} {
		if os.Getenv(v) == "" {
			return fmt.Errorf("reference mode needs %s=1 (run mkref.sh)", v)
		}
	}
	ref := &reference{
		Workload: w.name,
		Params:   w.params(),
		Tiers:    "snapshots, convergence, compiled kernels, liveness pruning and fusion all off",
		Seeds:    map[string]digests{},
	}
	for seed := uint64(0); seed < refSeeds; seed++ {
		b, err := newBench(w, seed, "reference", workDir)
		if err != nil {
			return err
		}
		b.off = true
		start := time.Now()
		if _, _, err := b.setup(); err != nil {
			return err
		}
		r, err := w.pass(b)
		os.RemoveAll(b.tmp)
		if err != nil {
			return err
		}
		ref.Seeds[strconv.FormatUint(seed, 10)] = r.col.digests()
		fmt.Fprintf(os.Stderr, "%s seed %d: %d experiments in %s\n", w.name, seed, r.col.experiments, time.Since(start).Round(time.Millisecond))
	}
	return ref.write(dir)
}

// Command fi runs a single fault-injection campaign: one benchmark
// program, one fault model, one configuration.
//
// Usage:
//
//	fi -prog CRC32 -tech read -mbf 3 -win 10 -n 10000 -seed 1
//	fi -prog CRC32 -model stuckat -win 100 -n 10000 -seed 1
//	fi -prog CRC32 -n 10000 -journal ./j          # durable, checkpointed
//	fi -prog CRC32 -n 10000 -journal ./j -resume  # continue after a crash
//	fi -journal ./j -status                       # inspect a journal dir
//
// The default model ("flip") is the paper's transient bit-flip model: the
// win flag is the (max-MBF, win-size) cluster's window in Table I
// notation — "0", "4", "1000" (fixed) or "2-10", "101-1000" (RND ranges)
// — and mbf=1 is the single bit-flip model. With -model stuckat, one
// register bit is instead held at 0/1 across every read in a dynamic
// window of -win instructions (the persistent-fault extension); -tech and
// -mbf are ignored.
//
// With -journal DIR the campaign runs as a durable job: it executes in
// shards checkpointed to a content-addressed journal under DIR, a killed
// run continues from its last checkpoint when re-run with -resume, and
// several fi processes given the same flags and -resume drain one
// campaign concurrently. -status lists every campaign in DIR with its
// shard progress and running tally.
//
// -cpuprofile FILE and -exectrace FILE record the whole run for
// `go tool pprof` and `go tool trace`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/profile"
	"multiflip/internal/prog"
	"multiflip/internal/report"
	"multiflip/internal/stats"
)

// options carries the parsed command line.
type options struct {
	prog       string
	model      string
	tech       string
	mbf        int
	winSpec    string
	n          int
	seed       uint64
	hang       uint64
	workers    int
	nosnap     bool
	noconv     bool
	nocomp     bool
	nolive     bool
	classSpec  string
	onfailSpec string
	journal    string
	resume     bool
	status     bool
	cpuprofile string
	exectrace  string

	// classifier is the parsed classSpec; onfail the parsed onfailSpec.
	classifier core.Classifier
	onfail     core.FailurePolicy
}

func main() {
	var o options
	flag.StringVar(&o.prog, "prog", "CRC32", "benchmark program (see cmd/proginfo for the list)")
	flag.StringVar(&o.model, "model", "flip", `fault model: "flip" (transient bit flips) or "stuckat" (bit held across a read window)`)
	flag.StringVar(&o.tech, "tech", "read", `technique: "read" (inject-on-read) or "write" (inject-on-write); flip model only`)
	flag.IntVar(&o.mbf, "mbf", 1, "max-MBF: maximum bit-flip errors per run (1 = single-bit model); flip model only")
	flag.StringVar(&o.winSpec, "win", "", `window: injection spacing for flip ("0", "100", "2-10", ...; default 0), hold length for stuckat (default 100)`)
	flag.IntVar(&o.n, "n", 1000, "experiments in the campaign (the paper uses 10000)")
	flag.Uint64Var(&o.seed, "seed", 1, "campaign seed (campaigns are exactly reproducible)")
	flag.Uint64Var(&o.hang, "hang", core.DefaultHangFactor, "hang budget as a multiple of the fault-free dynamic instruction count")
	flag.IntVar(&o.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.BoolVar(&o.nosnap, "nosnap", false, "disable golden-run snapshot fast-forwarding (full prefix replay)")
	flag.BoolVar(&o.noconv, "noconverge", false, "disable convergence-gated early termination and the fault-equivalence memo")
	flag.BoolVar(&o.nocomp, "nocompile", false, "disable the compiled fast tier (run the interpreter between event horizons)")
	flag.BoolVar(&o.nolive, "noliveness", false, "disable static liveness pruning (execute experiments the oracle could classify)")
	flag.StringVar(&o.classSpec, "classifier", "", `outcome classifier: "exact" (default) or "tol:abs=E,rel=E[,word=4|8][,float]" (tolerant output comparison)`)
	flag.StringVar(&o.onfailSpec, "onfail", "", `failure policy for experiments failing every supervision tier: "fast" (abort, default) or "quarantine" (poison and keep draining)`)
	flag.StringVar(&o.journal, "journal", "", "journal directory: run the campaign as a durable sharded job (checkpointed, resumable, multi-process)")
	flag.BoolVar(&o.resume, "resume", false, "resume the journaled campaign from its last checkpoint (requires -journal)")
	flag.BoolVar(&o.status, "status", false, "list the campaigns in the -journal directory instead of running one")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile (runtime/pprof) of the whole run to this file")
	flag.StringVar(&o.exectrace, "exectrace", "", "write an execution trace (runtime/trace) of the whole run to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fi:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	stop, err := profile.Start(o.cpuprofile, o.exectrace)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume needs -journal DIR (there is no journal to resume from)")
	}
	if o.status {
		if o.journal == "" {
			return fmt.Errorf("-status needs -journal DIR")
		}
		return runStatus(o.journal)
	}
	// Reject a bad model name or window before target preparation:
	// profiling runs the whole golden run plus snapshot and trace
	// capture, which is seconds of waste on a typo.
	if o.model != "flip" && o.model != "stuckat" {
		return fmt.Errorf("unknown model %q (want flip or stuckat)", o.model)
	}
	if o.classifier, err = core.ParseClassifier(o.classSpec); err != nil {
		return err
	}
	if o.onfail, err = core.ParseFailurePolicy(o.onfailSpec); err != nil {
		return err
	}
	win := core.Win(0)
	if o.model == "stuckat" {
		win = core.Win(core.DefaultStuckWindow)
	}
	if o.winSpec != "" {
		var err error
		if o.model == "stuckat" {
			win, err = core.ParseStuckWindow(o.winSpec)
		} else {
			win, err = core.ParseWinSize(o.winSpec)
		}
		if err != nil {
			return err
		}
	}
	b, err := prog.ByName(o.prog)
	if err != nil {
		return err
	}
	p, err := b.Build()
	if err != nil {
		return err
	}
	target, err := core.NewTargetOpts(o.prog, p, core.TargetOptions{NoConverge: o.noconv, NoCompile: o.nocomp, NoLiveness: o.nolive})
	if err != nil {
		return err
	}
	if o.model == "stuckat" {
		return runStuckAt(target, win, o)
	}
	return runFlip(target, win, o)
}

// service returns the campaign Service for the flags, or nil without
// -journal (the campaign then runs on the engine's in-memory fast path).
func (o *options) service() *core.Service {
	if o.journal == "" {
		return nil
	}
	return &core.Service{Dir: o.journal, Resume: o.resume}
}

func runFlip(target *core.Target, win core.WinSize, o options) error {
	var tech core.Technique
	switch o.tech {
	case "read":
		tech = core.InjectOnRead
	case "write":
		tech = core.InjectOnWrite
	default:
		return fmt.Errorf("unknown technique %q (want read or write)", o.tech)
	}
	cfg := core.Config{MaxMBF: o.mbf, Win: win}
	start := time.Now()
	res, err := core.RunCampaign(core.CampaignSpec{
		Target:      target,
		Technique:   tech,
		Config:      cfg,
		N:           o.n,
		Seed:        o.seed,
		HangFactor:  o.hang,
		Workers:     o.workers,
		NoSnapshots: o.nosnap,
		NoConverge:  o.noconv,
		NoCompile:   o.nocomp,
		NoLiveness:  o.nolive,
		Classifier:  o.classifier,
		OnFailure:   o.onfail,
		Service:     o.service(),
	})
	if err != nil {
		return err
	}
	printThroughput(os.Stderr, res.N(), time.Since(start))
	title := fmt.Sprintf("Campaign: %s, %s, %s, n=%d, seed=%d%s (golden: %d dyn instr, %d/%d candidates)",
		target.Name, tech, cfg, res.N(), o.seed, classifierTag(o.classifier),
		target.GoldenDyn, target.ReadCands, target.WriteCands)
	return renderCampaign(title, &res.EngineResult)
}

func runStuckAt(target *core.Target, win core.WinSize, o options) error {
	start := time.Now()
	res, err := core.RunStuckAt(core.StuckAtSpec{
		Target:      target,
		Window:      win,
		N:           o.n,
		Seed:        o.seed,
		HangFactor:  o.hang,
		Workers:     o.workers,
		NoSnapshots: o.nosnap,
		NoConverge:  o.noconv,
		NoCompile:   o.nocomp,
		Classifier:  o.classifier,
		OnFailure:   o.onfail,
		Service:     o.service(),
	})
	if err != nil {
		return err
	}
	printThroughput(os.Stderr, res.N(), time.Since(start))
	title := fmt.Sprintf("Campaign: %s, stuck-at (bit held for a %s-instruction read window), n=%d, seed=%d%s (golden: %d dyn instr, %d read candidates)",
		target.Name, win, res.N(), o.seed, classifierTag(o.classifier),
		target.GoldenDyn, target.ReadCands)
	return renderCampaign(title, &res.EngineResult)
}

// printThroughput reports the campaign's wall time and experiments per
// second. It goes to stderr so the outcome table on stdout stays
// byte-deterministic.
func printThroughput(w io.Writer, n int, wall time.Duration) {
	fmt.Fprintf(w, "fi: %d experiments in %s (%.0f experiments/s)\n",
		n, wall.Round(time.Millisecond), float64(n)/wall.Seconds())
}

// runStatus lists every campaign journal in the directory with its shard
// progress and the running tally over checkpointed shards.
func runStatus(dir string) error {
	infos, err := core.InspectDir(dir)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Printf("no campaign journals in %s\n", dir)
		return nil
	}
	t := &report.Table{
		Title: fmt.Sprintf("Campaign journals in %s", dir),
		Columns: []string{"campaign", "n", "seed", "shards done/leased/pending",
			"experiments", "pruned", "SDC so far", "0->1", "1->0"},
	}
	var extra []string
	for _, in := range infos {
		st := in.Status
		sdc := "-"
		if st.Tally.N() > 0 {
			sdc = stats.FormatPct(st.Tally.SDCPct()) + "%"
		}
		// Journals written before the static-pruning tier carry no counter
		// and land on the same "-" as campaigns where the tier never fired.
		pruned := "-"
		if st.StaticPruned > 0 {
			pruned = strconv.Itoa(st.StaticPruned)
		}
		t.AddRow(in.Meta.Model,
			strconv.Itoa(in.Meta.N),
			strconv.FormatUint(in.Meta.Seed, 10),
			fmt.Sprintf("%d/%d/%d of %d", st.Done, st.Leased, st.Pending, st.Shards),
			fmt.Sprintf("%d/%d", st.ExperimentsDone, st.ExperimentsTotal),
			pruned,
			sdc,
			dirCell(&st.Tally, core.Dir0to1),
			dirCell(&st.Tally, core.Dir1to0))
		// In-flight shards with live leases: who holds what, and for how
		// much longer, instead of lumping them in with pending shards.
		for _, l := range st.Leases {
			extra = append(extra, fmt.Sprintf("%s seed=%d: shard %d leased by %s, expires in %s (heartbeats extend it)",
				in.Meta.Model, in.Meta.Seed, l.Shard, l.Worker, l.Remaining.Round(100*time.Millisecond)))
		}
		if st.Quarantined > 0 {
			extra = append(extra, fmt.Sprintf("%s seed=%d: %d experiment(s) quarantined — run the campaign front-end for the repro records",
				in.Meta.Model, in.Meta.Seed, st.Quarantined))
		}
	}
	t.Notes = append(t.Notes,
		"The tally covers checkpointed shards only; shard merging is exact, so percentages are true partial results.",
		"0->1 / 1->0 split checkpointed experiments by flip direction (count and SDC%); journals written before the dimensional tally show \"-\".",
		"pruned counts experiments classified Benign by the static liveness tier without executing; \"-\" means none (or a journal written before the tier).")
	t.Notes = append(t.Notes, extra...)
	return t.Render(os.Stdout)
}

// dirCell renders one flip-direction column of the status table:
// "count (sdc%)" over the checkpointed shards, or "-" when the journal
// predates the dimensional tally (its breakdown is empty).
func dirCell(tl *core.Tally, dir core.FlipDir) string {
	if tl.Dims.N() == 0 {
		return "-"
	}
	n := tl.Dims.DirTotal(dir)
	return fmt.Sprintf("%d (%s%%)", n, stats.FormatPct(stats.Percent(tl.Dims.DirCount(core.OutcomeSDC, dir), n)))
}

// classifierTag renders the campaign title's classifier suffix: empty
// for the default exact comparison, ", classifier=<name>" otherwise.
func classifierTag(c core.Classifier) string {
	if c == nil {
		return ""
	}
	if name := c.Name(); name != "exact" {
		return ", classifier=" + name
	}
	return ""
}

// renderCampaign prints the shared outcome table every model's campaign
// reports.
func renderCampaign(title string, res *core.EngineResult) error {
	t := &report.Table{
		Title:   title,
		Columns: []string{"outcome", "count", "percent", "95% CI"},
	}
	for _, o := range core.Outcomes() {
		t.AddRow(o.String(),
			strconv.Itoa(res.Count(o)),
			stats.FormatPct(res.Pct(o)),
			"±"+stats.FormatPct(res.CI95(o)))
	}
	// The Internal row appears only when the Quarantine policy actually
	// poisoned experiments: healthy output is byte-identical to builds
	// that predate the supervision layer.
	if n := res.Count(core.OutcomeInternal); n > 0 {
		t.AddRow(core.OutcomeInternal.String(),
			strconv.Itoa(n),
			stats.FormatPct(res.Pct(core.OutcomeInternal)),
			"±"+stats.FormatPct(res.CI95(core.OutcomeInternal)))
	}
	t.AddRow("Detection", "", stats.FormatPct(res.DetectionPct()), "")
	t.Notes = append(t.Notes,
		fmt.Sprintf("error resilience: %.3f", res.Resilience()),
		fmt.Sprintf("mean activated errors per experiment: %.2f", float64(res.ActivatedTotal)/float64(res.N())),
		fmt.Sprintf("early exits: %d converged with the golden run, %d fault-equivalence memo hits", res.Converged, res.MemoHits))
	// Only campaigns where the tier fired mention it: flag-identical output
	// to builds predating the static-pruning tier otherwise.
	if res.StaticPruned > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("static pruning: %d experiment(s) proved Benign by the liveness oracle without executing", res.StaticPruned))
	}
	for _, q := range res.Quarantined {
		failure := ""
		if n := len(q.Errs); n > 0 {
			failure = q.Errs[n-1]
		}
		if q.Panic != "" {
			failure = fmt.Sprintf("panic: %s [stack %s]", q.Panic, q.Stack)
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"quarantined: experiment %d (seed %d) failed every tier (%s): %s",
			q.Index, q.Seed, strings.Join(q.Tiers, "->"), failure))
	}
	return t.Render(os.Stdout)
}

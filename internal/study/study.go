// Package study orchestrates the paper's full experimental design: 182
// fault-injection campaigns per benchmark program (§III-E) — one
// single-bit campaign plus 90 (max-MBF, win-size) multi-bit clusters per
// technique — and regenerates every table and figure of the evaluation
// from the results.
package study

import (
	"fmt"
	"io"
	"sync"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// Options configures a study run.
type Options struct {
	// N is the number of experiments per campaign. The paper uses 10,000;
	// smaller values trade confidence-interval width for wall-clock time.
	// Zero selects 500.
	N int
	// Seed drives all campaign sampling; a study is reproducible given
	// (Seed, N, Programs, grid).
	Seed uint64
	// Programs selects benchmark names; empty selects all 15.
	Programs []string
	// MaxMBFs overrides Table I's max-MBF grid (empty = standard).
	MaxMBFs []int
	// WinSizes overrides Table I's win-size grid (empty = standard).
	WinSizes []core.WinSize
	// StuckAtWindow is the hold window of the stuck-at extension
	// campaign run per program alongside the flip grid (zero =
	// core.DefaultStuckWindow).
	StuckAtWindow core.WinSize
	// NoStuckAt skips the stuck-at extension campaigns entirely; the
	// stuck-at table and the EXT answers row are then omitted.
	NoStuckAt bool
	// Workers bounds parallelism (0 = GOMAXPROCS). It is both the
	// worker count of each campaign and the number of campaigns a
	// program (and the transition study) keeps in flight at once, so one
	// campaign's tail overlaps the next one's work. 1 runs a fully
	// serial study. Results do not depend on it.
	Workers int
	// HangFactor scales the hang budget (0 = core.DefaultHangFactor).
	HangFactor uint64
	// NoSnapshots disables golden-run fast-forwarding: every experiment
	// replays its fault-free prefix from instruction 0. Results are
	// bit-identical either way; the knob supports A/B timing and debugging.
	NoSnapshots bool
	// NoConverge disables convergence-gated early termination and the
	// fault-equivalence memo: every experiment runs to completion. Results
	// are bit-identical either way; the knob supports A/B timing and the
	// CI convergence ablation.
	NoConverge bool
	// NoCompile disables the compiled fast tier: event-horizon stretches
	// execute through the token-threaded interpreter instead of the
	// workloads' generated native kernels. Results are bit-identical
	// either way; the knob supports A/B timing and the CI compile
	// ablation.
	NoCompile bool
	// NoLiveness disables the static liveness pruning tier: experiments
	// whose flipped bits are provably dead execute on the VM instead of
	// being classified Benign up front. Results are bit-identical either
	// way modulo the StaticPruned counter; the knob supports A/B timing
	// and the CI liveness ablation.
	NoLiveness bool
	// Classifier judges golden-vs-actual output in every campaign of the
	// study (nil = core.ExactClassifier). Non-default classifiers journal
	// under their own campaign fingerprints.
	Classifier core.Classifier
	// OnFailure decides what happens to an experiment that fails or
	// panics at every supervision tier, in every campaign of the study:
	// core.FailFast (default) aborts, core.Quarantine poisons the
	// experiment and keeps draining (quarantined experiments then render
	// in their own table).
	OnFailure core.FailurePolicy
	// JournalDir, when set, runs every campaign as a durable journaled
	// job under this directory: campaigns checkpoint per shard, a killed
	// study resumes from its last checkpoints (with Resume), and
	// concurrent study processes sharing the directory drain the same
	// campaigns cooperatively. Campaign journals and the cross-campaign
	// fault-equivalence memo are content-addressed, so no coordination
	// beyond the shared directory is needed.
	JournalDir string
	// Resume folds checkpoints already present in JournalDir instead of
	// discarding them. Without it, every campaign starts fresh.
	Resume bool
	// Log, when non-nil, receives one progress line per campaign batch.
	Log io.Writer
}

// service returns the campaign Service for the study's options, or nil
// when no journal directory is configured (campaigns then run on the
// engine's in-memory fast path).
func (o Options) service() *core.Service {
	if o.JournalDir == "" {
		return nil
	}
	return &core.Service{Dir: o.JournalDir, Resume: o.Resume}
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 500
	}
	if len(o.Programs) == 0 {
		o.Programs = prog.Names()
	}
	if len(o.MaxMBFs) == 0 {
		o.MaxMBFs = core.StandardMaxMBF()
	}
	if len(o.WinSizes) == 0 {
		o.WinSizes = core.StandardWinSizes()
	}
	if o.StuckAtWindow == (core.WinSize{}) {
		o.StuckAtWindow = core.Win(core.DefaultStuckWindow)
	}
	return o
}

// ProgData holds one program's campaigns.
type ProgData struct {
	// Target is the prepared workload.
	Target *core.Target
	// Single maps technique -> the single bit-flip campaign (recorded, so
	// the transition study can pin its locations).
	Single map[core.Technique]*core.CampaignResult
	// Multi maps technique -> multi-bit campaigns in grid enumeration
	// order (max-MBF major, win-size minor).
	Multi map[core.Technique][]*core.CampaignResult
	// StuckAt is the stuck-at extension campaign: one register bit held
	// at 0/1 across every read in the configured window.
	StuckAt *core.StuckAtResult
}

// MultiByConfig returns the campaign for a configuration, or nil.
func (d *ProgData) MultiByConfig(tech core.Technique, cfg core.Config) *core.CampaignResult {
	for _, r := range d.Multi[tech] {
		if r.Spec.Config == cfg {
			return r
		}
	}
	return nil
}

// MultiWithWin returns the campaigns matching the predicate on win-size.
func (d *ProgData) MultiWithWin(tech core.Technique, keep func(core.WinSize) bool) []*core.CampaignResult {
	var out []*core.CampaignResult
	for _, r := range d.Multi[tech] {
		if keep(r.Spec.Config.Win) {
			out = append(out, r)
		}
	}
	return out
}

// Study is the complete result set.
type Study struct {
	// Opts echoes the (defaulted) options.
	Opts Options
	// Programs lists program names in Table II order.
	Programs []string
	// Data maps program name -> campaigns.
	Data map[string]*ProgData

	// transOnce memoizes RunTransitions: the §IV-C3 pinned campaigns run
	// at most once per study, no matter how many renderers (markdown,
	// CSV, answers) ask for them.
	transOnce sync.Once
	trans     map[string]map[core.Technique]*TransitionResult
	transErr  error
}

// Run executes the study: for every program and technique, the single
// bit-flip campaign plus the (MaxMBFs x WinSizes) multi-bit grid.
func Run(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	s := &Study{
		Opts:     opts,
		Programs: opts.Programs,
		Data:     make(map[string]*ProgData, len(opts.Programs)),
	}
	for _, name := range opts.Programs {
		d, err := runProgram(opts, name)
		if err != nil {
			return nil, err
		}
		s.Data[name] = d
	}
	return s, nil
}

// Experiments returns the number of experiments the study's campaigns
// ran: every program's single-bit, multi-bit and stuck-at campaigns.
func (s *Study) Experiments() int {
	n := 0
	for _, d := range s.Data {
		for _, tech := range core.Techniques() {
			if r := d.Single[tech]; r != nil {
				n += r.N()
			}
			for _, r := range d.Multi[tech] {
				n += r.N()
			}
		}
		if d.StuckAt != nil {
			n += d.StuckAt.N()
		}
	}
	return n
}

func runProgram(opts Options, name string) (*ProgData, error) {
	b, err := prog.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("study: build %s: %w", name, err)
	}
	target, err := core.NewTargetOpts(name, p, core.TargetOptions{
		NoSnapshots: opts.NoSnapshots,
		NoConverge:  opts.NoConverge,
		NoCompile:   opts.NoCompile,
		NoLiveness:  opts.NoLiveness,
	})
	if err != nil {
		return nil, err
	}
	d := &ProgData{
		Target: target,
		Single: make(map[core.Technique]*core.CampaignResult, 2),
		Multi:  make(map[core.Technique][]*core.CampaignResult, 2),
	}
	svc := opts.service()
	var grid []core.Config
	for _, m := range opts.MaxMBFs {
		for _, w := range opts.WinSizes {
			grid = append(grid, core.Config{MaxMBF: m, Win: w})
		}
	}
	// Every campaign writes into its own slot; the maps are filled once
	// the schedule has drained.
	techs := core.Techniques()
	singles := make([]*core.CampaignResult, len(techs))
	var jobs []job
	for ti, tech := range techs {
		multi := make([]*core.CampaignResult, len(grid))
		d.Multi[tech] = multi
		jobs = append(jobs, job{
			log: fmt.Sprintf("%s %s: single-bit + %d multi-bit campaigns (n=%d)", name, tech, len(grid), opts.N),
			run: func() (err error) {
				spec := opts.campaignSpec(target, tech, core.SingleBit(), campaignSeed(opts.Seed, name, tech, core.SingleBit()), svc)
				// Recorded, so the transition study can pin its locations.
				spec.Record = true
				singles[ti], err = runCampaign(spec)
				return err
			},
		})
		for k, cfg := range grid {
			jobs = append(jobs, job{run: func() (err error) {
				multi[k], err = runCampaign(opts.campaignSpec(target, tech, cfg, campaignSeed(opts.Seed, name, tech, cfg), svc))
				return err
			}})
		}
	}
	if !opts.NoStuckAt {
		// The stuck-at extension rides the same engine: one campaign per
		// program, anchored in the inject-on-read candidate space.
		jobs = append(jobs, job{
			log: fmt.Sprintf("%s stuck-at: window %s (n=%d)", name, opts.StuckAtWindow, opts.N),
			run: func() (err error) {
				d.StuckAt, err = runStuckAt(core.StuckAtSpec{
					Target:      target,
					Window:      opts.StuckAtWindow,
					N:           opts.N,
					Seed:        stuckSeed(opts.Seed, name, opts.StuckAtWindow),
					HangFactor:  opts.HangFactor,
					Workers:     opts.Workers,
					NoSnapshots: opts.NoSnapshots,
					NoConverge:  opts.NoConverge,
					NoCompile:   opts.NoCompile,
					Classifier:  opts.Classifier,
					OnFailure:   opts.OnFailure,
					Service:     svc,
				})
				return err
			},
		})
	}
	if err := runJobs(opts.Workers, opts.Log, jobs); err != nil {
		return nil, err
	}
	for ti, tech := range techs {
		d.Single[tech] = singles[ti]
	}
	return d, nil
}

// campaignSpec returns the spec of one flip campaign of the study on
// target: the options' experiment count, execution knobs, classifier and
// failure policy, under the given seed and service.
func (o Options) campaignSpec(target *core.Target, tech core.Technique, cfg core.Config, seed uint64, svc *core.Service) core.CampaignSpec {
	return core.CampaignSpec{
		Target:      target,
		Technique:   tech,
		Config:      cfg,
		N:           o.N,
		Seed:        seed,
		HangFactor:  o.HangFactor,
		Workers:     o.Workers,
		NoSnapshots: o.NoSnapshots,
		NoConverge:  o.NoConverge,
		NoCompile:   o.NoCompile,
		NoLiveness:  o.NoLiveness,
		Classifier:  o.Classifier,
		OnFailure:   o.OnFailure,
		Service:     svc,
	}
}

// runCampaign and runStuckAt run the study's campaigns. Test seam: the
// failure-path tests wrap them to count started campaigns and to fail
// one technique's campaigns.
var (
	runCampaign = core.RunCampaign
	runStuckAt  = core.RunStuckAt
)

// stuckSeed derives a stable seed per (study seed, program, window) for
// the stuck-at extension, disjoint from the flip campaigns' seeds.
func stuckSeed(seed uint64, name string, win core.WinSize) uint64 {
	h := seed ^ 0x13198a2e03707344 // distinct stream from campaignSeed
	for _, c := range []byte(name) {
		h = h*1099511628211 + uint64(c)
	}
	h ^= uint64(uint32(win.Lo)) << 16
	h ^= uint64(uint32(win.Hi))
	return xrand.SplitMix64(&h)
}

// campaignSeed derives a stable seed per (study seed, program, technique,
// config).
func campaignSeed(seed uint64, name string, tech core.Technique, cfg core.Config) uint64 {
	h := seed ^ 0x243f6a8885a308d3
	for _, c := range []byte(name) {
		h = h*1099511628211 + uint64(c)
	}
	h ^= uint64(tech) << 56
	h ^= uint64(cfg.MaxMBF) << 40
	h ^= uint64(uint32(cfg.Win.Lo)) << 16
	h ^= uint64(uint32(cfg.Win.Hi))
	return xrand.SplitMix64(&h)
}

func logf(w io.Writer, format string, args ...any) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, format+"\n", args...)
}

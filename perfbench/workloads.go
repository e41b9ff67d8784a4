package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/study"
	"multiflip/internal/xrand"
)

// workload is one set of inputs the benchmark runs. A pass is the unit
// of measured work: the benchmark repeats passes for the run's seconds
// and reports medians. A pass is deterministic given the input seed, so
// every pass of a run must reproduce the same digests.
type workload struct {
	name     string
	programs []string
	// n is the experiments per campaign.
	n int
	// probeN is the experiments per campaign of the traced run's layer
	// probes.
	probeN int
	pass   func(b *bench) (*passResult, error)
}

func (w *workload) params() string {
	return fmt.Sprintf("%s n=%d programs=%d", w.name, w.n, len(w.programs))
}

// quickMaxMBFs and quickWins are cmd/study's -quick grid.
var (
	quickMaxMBFs = []int{2, 3, 10, 30}
	quickWins    = []core.WinSize{core.Win(0), core.Win(1), core.Win(4), core.WinRange(11, 100), core.Win(1000)}
)

var workloads = []*workload{
	{name: "study-grid", programs: prog.Names(), n: 100, probeN: 100, pass: gridPass},
	{name: "single-bit-paper", programs: prog.Names(), n: 10000, probeN: 1000, pass: singleBitPass},
	{name: "study-journaled", programs: prog.Names(), n: 60, probeN: 60, pass: journaledPass},
	{name: "large-memory", programs: []string{"megapixel"}, n: 600, probeN: 60, pass: largeMemoryPass},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passResult is what one pass measured and recorded.
type passResult struct {
	wall time.Duration
	// campaign is the time spent inside the calls that run campaigns.
	campaign time.Duration
	// resume is the read-back pass of a journaled study (zero otherwise).
	resume time.Duration
	// journalDir holds the pass's journal files (journaled study only).
	journalDir string
	col        *collector
}

// collector digests the campaigns of a pass by group and sums the
// engine counters the per-layer metrics report.
type collector struct {
	dg    map[string]*digester
	sizes groupSizes
	// experiments recorded, and the engine counters over them.
	experiments, pruned, converged, memo, hang, crash, quarantined int
}

func newCollector() *collector {
	return &collector{dg: map[string]*digester{}, sizes: groupSizes{}}
}

func (c *collector) group(g string) *digester {
	d := c.dg[g]
	if d == nil {
		d = newDigester()
		c.dg[g] = d
	}
	return d
}

func (c *collector) engine(g, label string, r *core.EngineResult) {
	c.group(g).engine(label, r)
	n := r.Tally.N()
	c.sizes[g] += n
	c.experiments += n
	c.pruned += r.StaticPruned
	c.converged += r.Converged
	c.memo += r.MemoHits
	c.hang += r.Count(core.OutcomeHang)
	c.crash += r.Count(core.OutcomeException)
	c.quarantined += len(r.Quarantined)
}

func (c *collector) memfault(g, label string, r *memfault.Result) {
	c.group(g).memfault(label, r)
	n := r.Tally.N()
	c.sizes[g] += n
	c.experiments += n
	c.converged += r.Converged
	c.memo += r.MemoHits
	c.hang += r.Count(core.OutcomeHang)
	c.crash += r.Count(core.OutcomeException)
	c.quarantined += len(r.Quarantined)
}

// count adds experiments a group ran whose results reach the digest
// through a rendered table or a derived matrix rather than an engine
// result.
func (c *collector) count(g string, n int) {
	c.sizes[g] += n
	c.experiments += n
}

func (c *collector) digests() digests {
	out := make(digests, len(c.dg))
	for g, d := range c.dg {
		out[g] = d.sum()
	}
	return out
}

// campaignSeed derives a campaign seed from the input seed, so the
// program receives only generated seeds.
func campaignSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	s := seed ^ h.Sum64()
	return xrand.SplitMix64(&s)
}

// studyOptions returns the study options of a grid pass.
func (b *bench) studyOptions(maxMBFs []int, wins []core.WinSize) study.Options {
	return study.Options{
		N:             b.w.n,
		Seed:          b.seed,
		MaxMBFs:       maxMBFs,
		WinSizes:      wins,
		StuckAtWindow: core.Win(core.DefaultStuckWindow),
		NoSnapshots:   b.off,
		NoConverge:    b.off,
		NoCompile:     b.off,
		NoLiveness:    b.off,
		Classifier:    b.classifier(),
	}
}

// runStudy runs study.Run once per program — the seeds depend only on
// the program, so this is the same study as one call over all of them —
// and assembles the whole study.
func (b *bench) runStudy(opts study.Options, key string) (*study.Study, time.Duration, error) {
	all := opts
	all.Programs = b.w.programs
	s := &study.Study{Opts: all, Programs: all.Programs, Data: map[string]*study.ProgData{}}
	perProgram := opts.N * (1 + 2*(1+len(opts.MaxMBFs)*len(opts.WinSizes)))
	var total time.Duration
	for _, name := range b.w.programs {
		o := opts
		o.Programs = []string{name}
		var ps *study.Study
		d, err := b.tr.call("study.Run", key+name, perProgram, func() (err error) {
			ps, err = study.Run(o)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		total += d
		s.Data[name] = ps.Data[name]
	}
	return s, total, nil
}

// collectStudy digests every campaign of a study, one group per program.
func collectStudy(c *collector, s *study.Study) {
	for _, name := range s.Programs {
		d := s.Data[name]
		for _, tech := range core.Techniques() {
			c.engine(name, tech.String()+"/single", &d.Single[tech].EngineResult)
			for _, m := range d.Multi[tech] {
				c.engine(name, tech.String()+"/"+m.Spec.Config.String(), &m.EngineResult)
			}
		}
		if d.StuckAt != nil {
			c.engine(name, "stuckat", &d.StuckAt.EngineResult)
		}
	}
}

// gridPass is the paper's pipeline as `study -ablations=false` runs it:
// the full Table I grid plus the stuck-at extension for every program,
// the transition study, every table rendered, and the CRC32 and sha
// memory-word sweeps.
func gridPass(b *bench) (*passResult, error) {
	r := &passResult{col: newCollector()}
	start := time.Now()
	s, d, err := b.runStudy(b.studyOptions(core.StandardMaxMBF(), core.StandardWinSizes()), "")
	if err != nil {
		return nil, err
	}
	r.campaign += d
	var trans map[string]map[core.Technique]*study.TransitionResult
	d, err = b.tr.call("study.RunTransitions", "", 0, func() (err error) {
		trans, err = s.RunTransitions()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.campaign += d
	if _, err := b.tr.call("study.RenderAll", "", 0, func() error {
		return s.RenderAll(io.Discard, true)
	}); err != nil {
		return nil, err
	}
	sweepProgs, sweepBits := []string{"CRC32", "sha"}, []int{1, 2, 3, 4, 8}
	sweeps := make([]string, len(sweepProgs))
	for i, name := range sweepProgs {
		d, err := b.tr.call("memfault.SweepTable", name, len(sweepBits)*b.w.n, func() error {
			t, err := memfault.SweepTable(s.Data[name].Target, sweepBits, b.w.n, b.seed)
			if err != nil {
				return err
			}
			sweeps[i] = t.String()
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.campaign += d
	}
	r.wall = time.Since(start)

	collectStudy(r.col, s)
	// The transition study pins multi-bit reruns to the single-bit
	// locations; its campaigns are digested through the matrices.
	for _, name := range s.Programs {
		for _, tech := range core.Techniques() {
			tr := trans[name][tech]
			g := r.col.group(name)
			g.str("transitions/" + tech.String() + "/" + tr.Best.Config.String())
			for _, row := range tr.Matrix.Counts {
				g.ints(row[:]...)
			}
			r.col.count(name, tr.Matrix.Total())
		}
	}
	// The sweep reports outcome percentages only, so its rendered table
	// is its digest.
	for i, name := range sweepProgs {
		r.col.group(name).str("memfault-sweep/" + sweeps[i])
		r.col.count(name, len(sweepBits)*b.w.n)
	}
	return r, nil
}

// singleBitPass runs the paper-scale single-bit campaigns: every
// program, both techniques, recorded.
func singleBitPass(b *bench) (*passResult, error) {
	r := &passResult{col: newCollector()}
	type done struct {
		group, label string
		res          *core.CampaignResult
	}
	var runs []done
	start := time.Now()
	for _, name := range b.w.programs {
		for _, tech := range core.Techniques() {
			label := name + "/" + tech.String() + "/single"
			res, d, err := b.runCampaign(core.CampaignSpec{
				Target:    b.targets[name],
				Technique: tech,
				Config:    core.SingleBit(),
				N:         b.w.n,
				Seed:      campaignSeed(b.seed, label),
				Record:    true,
			}, label)
			if err != nil {
				return nil, err
			}
			r.campaign += d
			runs = append(runs, done{name, label, res})
		}
	}
	r.wall = time.Since(start)
	for _, d := range runs {
		r.col.engine(d.group, d.label, &d.res.EngineResult)
	}
	return r, nil
}

// journaledPass runs the quick grid as a durable study into a fresh
// journal directory, then reads it back with Resume. Both passes must
// record what the in-memory study records.
func journaledPass(b *bench) (*passResult, error) {
	r := &passResult{col: newCollector()}
	opts := b.studyOptions(quickMaxMBFs, quickWins)
	if b.off {
		s, _, err := b.runStudy(opts, "")
		if err != nil {
			return nil, err
		}
		collectStudy(r.col, s)
		return r, nil
	}
	dir, err := os.MkdirTemp(b.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	opts.JournalDir = dir
	start := time.Now()
	sw, dw, err := b.runStudy(opts, "write/")
	if err != nil {
		return nil, err
	}
	opts.Resume = true
	sr, dr, err := b.runStudy(opts, "read/")
	if err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	r.campaign = dw + dr
	r.resume = dr
	r.journalDir = dir
	collectStudy(r.col, sw)
	read := newCollector()
	collectStudy(read, sr)
	// The read pass must reproduce the write pass group for group.
	if failed, bad := gate(r.col.digests(), read.digests(), read.sizes); len(bad) > 0 {
		b.failed += failed
		b.mismatch = append(b.mismatch, prefixAll("read-pass/", bad)...)
	}
	r.col.experiments += read.experiments
	return r, nil
}

func prefixAll(p string, xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = p + x
	}
	return out
}

// largeMemoryPass runs register single-bit campaigns and memory-word
// campaigns over the 1 MiB megapixel workload.
func largeMemoryPass(b *bench) (*passResult, error) {
	r := &passResult{col: newCollector()}
	t := b.targets["megapixel"]
	var regs []*core.CampaignResult
	var mems []*memfault.Result
	start := time.Now()
	for _, tech := range core.Techniques() {
		label := "megapixel/" + tech.String() + "/single"
		res, d, err := b.runCampaign(core.CampaignSpec{
			Target:    t,
			Technique: tech,
			Config:    core.SingleBit(),
			N:         b.w.n,
			Seed:      campaignSeed(b.seed, label),
		}, label)
		if err != nil {
			return nil, err
		}
		r.campaign += d
		regs = append(regs, res)
	}
	for _, bits := range memBits {
		label := fmt.Sprintf("megapixel/memfault/bits%d", bits)
		res, d, err := b.runMemfault(t, bits, b.w.n, campaignSeed(b.seed, label), label)
		if err != nil {
			return nil, err
		}
		r.campaign += d
		mems = append(mems, res)
	}
	r.wall = time.Since(start)
	for i, tech := range core.Techniques() {
		label := "megapixel/" + tech.String() + "/single"
		r.col.engine(label, label, &regs[i].EngineResult)
	}
	for i, bits := range memBits {
		label := fmt.Sprintf("megapixel/memfault/bits%d", bits)
		r.col.memfault(label, label, mems[i])
	}
	return r, nil
}

// memBits are the bits flipped per memory word in the memfault
// campaigns of large-memory and of the traced run's probes.
var memBits = []int{1, 8}

// runCampaign runs one register campaign under a span, applying the
// run's tier switches and classifier.
func (b *bench) runCampaign(spec core.CampaignSpec, key string) (*core.CampaignResult, time.Duration, error) {
	spec.NoSnapshots, spec.NoFusion, spec.NoCompile, spec.NoConverge, spec.NoLiveness = b.off, b.off, b.off, b.off, b.off
	spec.Classifier = b.classifier()
	kind := "multi"
	if spec.Config.IsSingle() {
		kind = "single"
	}
	var res *core.CampaignResult
	d, err := b.tr.call("core.RunCampaign/"+kind, key, spec.N, func() (err error) {
		res, err = core.RunCampaign(spec)
		return err
	})
	return res, d, err
}

func (b *bench) runMemfault(t *core.Target, bits, n int, seed uint64, key string) (*memfault.Result, time.Duration, error) {
	var res *memfault.Result
	d, err := b.tr.call(fmt.Sprintf("memfault.Run/bits%d", bits), key, n, func() (err error) {
		res, err = memfault.Run(memfault.Spec{
			Target: t, Bits: bits, N: n, Seed: seed,
			NoSnapshots: b.off, NoFusion: b.off, NoCompile: b.off, NoConverge: b.off,
			Classifier: b.classifier(),
		})
		return err
	})
	return res, d, err
}

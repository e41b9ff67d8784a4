package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/liveness"
	"multiflip/internal/vm"
)

const (
	// probeReps repeats the set-up layer probes; they report the median
	// of the per-repetition totals.
	probeReps = 3
	// goldenRounds and goldenSeconds bound the golden-run throughput
	// probe: rounds of one sample per variant, interleaved, until both
	// are reached.
	goldenRounds  = 9
	goldenSeconds = 1.5
	// restoreSnaps caps the snapshots per target the restore probe
	// resumes from (evenly spaced).
	restoreSnaps = 128
)

// probeSet runs the traced run's layer probes over the workload's
// programs, after the measured passes, and reports the per-layer
// metrics. Every probe times calls into one module's public functions.
type probeSet struct {
	b   *bench
	put func(name string, v float64, unit string)
	// journalDir is the last journaled pass's directory (journaled
	// study only); the journal probes read it instead of their own.
	journalDir string
	resumes    []float64
}

func (p *probeSet) run() error {
	for _, f := range []func() error{p.liveness, p.profile, p.golden, p.restore, p.campaigns, p.memfault, p.study} {
		if err := f(); err != nil {
			return err
		}
	}
	var snaps int
	for _, t := range p.b.targets {
		snaps += len(t.Snapshots)
	}
	p.put("vm.snapshots", float64(snaps), "count")
	return nil
}

// repTotals times fn for every program, probeReps times, and returns the
// median of the per-repetition totals in seconds.
func (p *probeSet) repTotals(name string, fn func(prog string) error) (float64, error) {
	var totals []float64
	for i := 0; i < probeReps; i++ {
		var total time.Duration
		for _, prog := range p.b.w.programs {
			d, err := p.b.tr.call(name, prog, 0, func() error { return fn(prog) })
			if err != nil {
				return 0, err
			}
			total += d
		}
		totals = append(totals, total.Seconds())
	}
	return median(totals), nil
}

func (p *probeSet) liveness() error {
	var st liveness.FuncStat
	secs, err := p.repTotals("liveness.Analyze", func(name string) error {
		prog := p.b.progs[name]
		a := liveness.Analyze(prog)
		s := a.ProgStat(prog)
		st.ReadBits += s.ReadBits
		st.DeadRead += s.DeadRead
		st.WriteBits += s.WriteBits
		st.DeadWrite += s.DeadWrite
		return nil
	})
	if err != nil {
		return err
	}
	p.put("liveness.analyze_s", secs, "s")
	p.put("liveness.dead_bit_density", st.Density(), "ratio")
	return nil
}

// profile times the fault-free profiling run target preparation makes:
// checkpoints at the target's interval, with the golden trace.
func (p *probeSet) profile() error {
	secs, err := p.repTotals("vm.ProfileWith", func(name string) error {
		_, err := vm.ProfileWith(p.b.progs[name], vm.Options{
			Checkpoint:   core.DefaultSnapshotInterval,
			MaxSnapshots: core.DefaultTargetMaxSnapshots,
			RecordTrace:  true,
		})
		return err
	})
	if err != nil {
		return err
	}
	p.put("vm.profile_s", secs, "s")
	return nil
}

// golden measures fault-free vm.Run throughput per execution tier:
// compiled kernels (the default), the fused interpreter, and the
// unfused interpreter. Each sample runs every program once; variants
// interleave round by round so drift hits all three alike.
func (p *probeSet) golden() error {
	variants := []struct {
		name string
		opts vm.Options
	}{
		{"kernel", vm.Options{}},
		{"interp", vm.Options{NoCompile: true}},
		{"nofuse", vm.Options{NoCompile: true, NoFuse: true}},
	}
	samples := make([][]float64, len(variants))
	start := time.Now()
	for round := 0; round < goldenRounds || time.Since(start).Seconds() < goldenSeconds; round++ {
		for i, v := range variants {
			var dyn uint64
			d, err := p.b.tr.call("vm.Run/golden."+v.name, "", 0, func() error {
				for _, name := range p.b.w.programs {
					res, err := vm.Run(p.b.progs[name], v.opts)
					if err != nil {
						return err
					}
					dyn += res.Dyn
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples[i] = append(samples[i], float64(dyn)/d.Seconds()/1e6)
		}
	}
	for i, v := range variants {
		base := "vm.golden_minstr_s." + v.name
		p.put(base, median(samples[i]), "Minstr/s")
		p.put(base+".q1", quantile(samples[i], 0.25), "Minstr/s")
		p.put(base+".q3", quantile(samples[i], 0.75), "Minstr/s")
	}
	return nil
}

// restore resumes vm.Run from target snapshots with a budget that stops
// the run after one instruction: the cost of restoring a snapshot.
func (p *probeSet) restore() error {
	var us []float64
	for _, name := range p.b.w.programs {
		snaps := p.b.targets[name].Snapshots
		step := 1
		if len(snaps) > restoreSnaps {
			step = len(snaps) / restoreSnaps
		}
		for i := 0; i < len(snaps); i += step {
			s := snaps[i]
			d, err := p.b.tr.call("vm.Run/restore", name, 0, func() error {
				_, err := vm.Run(p.b.progs[name], vm.Options{Resume: s, MaxDyn: s.Dyn + 1})
				return err
			})
			if err != nil {
				return err
			}
			us = append(us, float64(d.Microseconds())+float64(d%time.Microsecond)/1e3)
		}
	}
	p.put("vm.restore_us.p50", quantile(us, 0.5), "us")
	p.put("vm.restore_us.p99", quantile(us, 0.99), "us")
	return nil
}

// campaigns runs, per program and technique, one single-bit and one
// multi-bit (max-MBF 3, win RND(11-100)) campaign in memory, then the
// same campaigns journaled into a fresh directory, then resumed from
// it. It reports campaign latency per kind, the journal's overhead on
// the same campaigns, and the journal files' read costs and sizes.
func (p *probeSet) campaigns() error {
	b := p.b
	dir := filepath.Join(b.tmp, "probe-journal")
	configs := []core.Config{core.SingleBit(), {MaxMBF: 3, Win: core.WinRange(11, 100)}}
	type probe struct {
		key  string
		spec core.CampaignSpec
	}
	var probes []probe
	for _, name := range b.w.programs {
		for _, tech := range core.Techniques() {
			for _, cfg := range configs {
				key := fmt.Sprintf("probe/%s/%s/%s", name, tech, cfg)
				probes = append(probes, probe{key, core.CampaignSpec{
					Target:    b.targets[name],
					Technique: tech,
					Config:    cfg,
					N:         b.w.probeN,
					Seed:      campaignSeed(b.seed, key),
				}})
			}
		}
	}
	lat := map[bool][]float64{}
	exp := map[bool][]float64{}
	var overhead []float64
	var resume time.Duration
	for _, pr := range probes {
		spec, key := pr.spec, pr.key
		_, mem, err := b.runCampaign(spec, key)
		if err != nil {
			return err
		}
		single := spec.Config.IsSingle()
		lat[single] = append(lat[single], mem.Seconds()*1e3)
		exp[single] = append(exp[single], mem.Seconds()*1e6/float64(spec.N))
		spec.Service = &core.Service{Dir: dir}
		_, jd, err := b.runCampaign(spec, key+"/journaled")
		if err != nil {
			return err
		}
		overhead = append(overhead, (jd-mem).Seconds()*1e3)
		spec.Service = &core.Service{Dir: dir, Resume: true}
		_, rd, err := b.runCampaign(spec, key+"/resumed")
		if err != nil {
			return err
		}
		resume += rd
	}
	p.put("core.campaign_ms.single.p50", quantile(lat[true], 0.5), "ms")
	p.put("core.campaign_ms.single.p99", quantile(lat[true], 0.99), "ms")
	p.put("core.campaign_ms.multi.p50", quantile(lat[false], 0.5), "ms")
	p.put("core.campaign_ms.multi.p99", quantile(lat[false], 0.99), "ms")
	p.put("core.exp_us.single", median(exp[true]), "us")
	p.put("core.exp_us.multi", median(exp[false]), "us")
	p.put("journal.campaign_overhead_ms", median(overhead), "ms")
	if p.journalDir == "" {
		p.journalDir = dir
		p.resumes = []float64{resume.Seconds()}
	}
	p.put("journal.resume_s", median(p.resumes), "s")
	return p.journalFiles()
}

// journalFiles reads back a journal directory: every shared memo file
// through core.OpenSharedMemo, every campaign journal through
// core.OpenFileJournal and Results.
func (p *probeSet) journalFiles() error {
	entries, err := os.ReadDir(p.journalDir)
	if err != nil {
		return err
	}
	var memoMs []float64
	var fold time.Duration
	var files int
	var campaignBytes, memoBytes int64
	for _, e := range entries {
		path := filepath.Join(p.journalDir, e.Name())
		info, err := e.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasPrefix(e.Name(), "memo-"):
			files++
			memoBytes += info.Size()
			d, err := p.b.tr.call("core.OpenSharedMemo", e.Name(), 0, func() error {
				_, err := core.OpenSharedMemo(path)
				return err
			})
			if err != nil {
				return err
			}
			memoMs = append(memoMs, d.Seconds()*1e3)
		case strings.HasPrefix(e.Name(), "campaign-"):
			files++
			campaignBytes += info.Size()
			d, err := p.b.tr.call("journal.fold", e.Name(), 0, func() error {
				j, err := core.OpenFileJournal(path)
				if err != nil {
					return err
				}
				_, err = j.Results()
				if cerr := j.Close(); err == nil {
					err = cerr
				}
				return err
			})
			if err != nil {
				return err
			}
			fold += d
		}
	}
	p.put("journal.memo_open_ms.p50", quantile(memoMs, 0.5), "ms")
	p.put("journal.memo_open_ms.p99", quantile(memoMs, 0.99), "ms")
	p.put("journal.fold_ms", fold.Seconds()*1e3, "ms")
	p.put("journal.files", float64(files), "count")
	p.put("journal.campaign_bytes", float64(campaignBytes), "bytes")
	p.put("journal.memo_bytes", float64(memoBytes), "bytes")
	return nil
}

// memfault runs memory-word campaigns flipping 1 and 8 bits per word on
// every program.
func (p *probeSet) memfault() error {
	for _, bits := range memBits {
		var total time.Duration
		var n int
		for _, name := range p.b.w.programs {
			key := fmt.Sprintf("probe/%s/bits%d", name, bits)
			_, d, err := p.b.runMemfault(p.b.targets[name], bits, p.b.w.probeN, campaignSeed(p.b.seed, key), key)
			if err != nil {
				return err
			}
			total += d
			n += p.b.w.probeN
		}
		p.put(fmt.Sprintf("memfault.exp_us.bits%d", bits), total.Seconds()*1e6/float64(n), "us")
	}
	return nil
}

// study reports the study layer: per-program study.Run, the transition
// study and rendering. The study workloads report their own passes'
// calls; the others run a one-configuration study over their programs.
func (p *probeSet) study() error {
	b := p.b
	if len(b.tr.durs("study.RunTransitions")) == 0 {
		opts := b.studyOptions([]int{3}, []core.WinSize{core.WinRange(11, 100)})
		opts.N = b.w.probeN
		s, _, err := b.runStudy(opts, "probe/")
		if err != nil {
			return err
		}
		if _, err := b.tr.call("study.RunTransitions", "probe", 0, func() error {
			_, err := s.RunTransitions()
			return err
		}); err != nil {
			return err
		}
		if _, err := b.tr.call("study.RenderAll", "probe", 0, func() error {
			return s.RenderAll(io.Discard, true)
		}); err != nil {
			return err
		}
	}
	// Per-program study.Run spans: the workload's own (a journaled
	// study's write pass, not its read-back) when it has any.
	runs := map[bool][]float64{}
	for i := range b.tr.spans {
		s := &b.tr.spans[i]
		if s.Name != "study.Run" || strings.HasPrefix(s.Key, "read/") || strings.HasPrefix(s.Key, "memory/") {
			continue
		}
		probe := strings.HasPrefix(s.Key, "probe/")
		runs[probe] = append(runs[probe], s.dur().Seconds())
	}
	own := runs[false]
	if len(own) == 0 {
		own = runs[true]
	}
	p.put("study.program_s.p50", quantile(own, 0.5), "s")
	p.put("study.program_s.max", quantile(own, 1), "s")
	p.put("study.transitions_s", median(b.tr.durs("study.RunTransitions")), "s")
	p.put("study.render_s", median(b.tr.durs("study.RenderAll")), "s")
	return nil
}

package study_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/study"
)

// quickOpts is cmd/study's -quick grid over three programs.
func quickOpts() study.Options {
	return study.Options{
		N:        40,
		Seed:     3,
		Programs: []string{"CRC32", "histo", "qsort"},
		MaxMBFs:  []int{2, 3, 10, 30},
		WinSizes: []core.WinSize{core.Win(0), core.Win(1), core.Win(4), core.WinRange(11, 100), core.Win(1000)},
	}
}

// sameCampaign compares the scheduling-independent fields of two
// campaign results. Converged and MemoHits are left out: on the
// journaled path campaigns share the fault-equivalence memo, so which
// twin hits it depends on scheduling.
func sameCampaign(t *testing.T, label string, got, want *core.EngineResult) {
	t.Helper()
	switch {
	case got.Tally != want.Tally:
		t.Errorf("%s: Tally (or DimTally) differs", label)
	case got.TrapCounts != want.TrapCounts:
		t.Errorf("%s: TrapCounts %v, want %v", label, got.TrapCounts, want.TrapCounts)
	case got.CrashActivated != want.CrashActivated:
		t.Errorf("%s: CrashActivated %v, want %v", label, got.CrashActivated, want.CrashActivated)
	case got.ActivatedTotal != want.ActivatedTotal:
		t.Errorf("%s: ActivatedTotal %d, want %d", label, got.ActivatedTotal, want.ActivatedTotal)
	case got.StaticPruned != want.StaticPruned:
		t.Errorf("%s: StaticPruned %d, want %d", label, got.StaticPruned, want.StaticPruned)
	case !reflect.DeepEqual(got.Experiments, want.Experiments):
		t.Errorf("%s: recorded experiments differ", label)
	}
}

// sameStudy compares every campaign of got against want, and checks
// that each multi-bit slot holds its own grid configuration.
func sameStudy(t *testing.T, setting string, got, want *study.Study) {
	t.Helper()
	opts := want.Opts
	for _, name := range opts.Programs {
		g, w := got.Data[name], want.Data[name]
		for _, tech := range core.Techniques() {
			prefix := setting + " " + name + " " + tech.String()
			sameCampaign(t, prefix+" single", &g.Single[tech].EngineResult, &w.Single[tech].EngineResult)
			if len(g.Multi[tech]) != len(opts.MaxMBFs)*len(opts.WinSizes) {
				t.Fatalf("%s: %d multi-bit campaigns", prefix, len(g.Multi[tech]))
			}
			k := 0
			for _, m := range opts.MaxMBFs {
				for _, win := range opts.WinSizes {
					cfg := core.Config{MaxMBF: m, Win: win}
					r := g.Multi[tech][k]
					if r.Spec.Config != cfg {
						t.Errorf("%s: multi slot %d holds %s, want %s", prefix, k, r.Spec.Config, cfg)
					}
					sameCampaign(t, prefix+" "+cfg.String(), &r.EngineResult, &w.Multi[tech][k].EngineResult)
					k++
				}
			}
		}
		sameCampaign(t, setting+" "+name+" stuck-at", &g.StuckAt.EngineResult, &w.StuckAt.EngineResult)
	}
}

// TestConcurrentStudyMatchesSerial runs the quick study with every
// campaign in sequence (Workers=1) and with the default campaign
// concurrency, in memory, journaled, and resumed from a journal missing
// half its campaigns: every campaign must record the same results in
// the same slot.
func TestConcurrentStudyMatchesSerial(t *testing.T) {
	run := func(workers int, dir string, resume bool) *study.Study {
		t.Helper()
		opts := quickOpts()
		opts.Workers = workers
		opts.JournalDir = dir
		opts.Resume = resume
		s, err := study.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := run(1, "", false)
	sameStudy(t, "in-memory", run(0, "", false), ref)

	dirs := map[int]string{1: t.TempDir(), 0: t.TempDir()}
	for _, workers := range []int{1, 0} {
		sameStudy(t, "journaled", run(workers, dirs[workers], false), ref)
	}
	for _, workers := range []int{1, 0} {
		// Drop every other campaign journal, so the resume folds some
		// campaigns and re-runs the rest alongside them.
		paths, err := filepath.Glob(filepath.Join(dirs[workers], "campaign-*.mfj"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(paths)
		for i := 0; i < len(paths); i += 2 {
			if err := os.Remove(paths[i]); err != nil {
				t.Fatal(err)
			}
		}
		sameStudy(t, "resumed", run(workers, dirs[workers], true), ref)
	}
}

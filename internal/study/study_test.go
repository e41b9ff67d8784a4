package study_test

import (
	"strings"
	"sync"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

// tinyOpts keeps study tests fast: two small programs, a reduced grid.
func tinyOpts() study.Options {
	return study.Options{
		N:        60,
		Seed:     1,
		Programs: []string{"CRC32", "histo"},
		MaxMBFs:  []int{2, 30},
		WinSizes: []core.WinSize{core.Win(0), core.Win(1), core.WinRange(11, 100)},
	}
}

var (
	tinyOnce  sync.Once
	tinyStudy *study.Study
	tinyErr   error
)

func tiny(t *testing.T) *study.Study {
	t.Helper()
	tinyOnce.Do(func() {
		tinyStudy, tinyErr = study.Run(tinyOpts())
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyStudy
}

func TestRunShape(t *testing.T) {
	s := tiny(t)
	if len(s.Programs) != 2 {
		t.Fatalf("programs = %v", s.Programs)
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		if d == nil {
			t.Fatalf("no data for %s", name)
		}
		if d.StuckAt == nil || d.StuckAt.N() != 60 {
			t.Fatalf("%s: stuck-at extension campaign missing or wrong size", name)
		}
		for _, tech := range core.Techniques() {
			if d.Single[tech] == nil {
				t.Fatalf("%s: no single campaign for %s", name, tech)
			}
			if got, want := len(d.Multi[tech]), 2*3; got != want {
				t.Fatalf("%s %s: %d multi campaigns, want %d", name, tech, got, want)
			}
			if len(d.Single[tech].Experiments) != 60 {
				t.Fatalf("single campaign not recorded")
			}
		}
	}
}

func TestMultiByConfig(t *testing.T) {
	s := tiny(t)
	d := s.Data["CRC32"]
	r := d.MultiByConfig(core.InjectOnRead, core.Config{MaxMBF: 2, Win: core.Win(1)})
	if r == nil {
		t.Fatal("config lookup failed")
	}
	if r.Spec.Config.MaxMBF != 2 {
		t.Fatal("wrong campaign returned")
	}
	if d.MultiByConfig(core.InjectOnRead, core.Config{MaxMBF: 99, Win: core.Win(1)}) != nil {
		t.Fatal("missing config should return nil")
	}
}

func TestTableI(t *testing.T) {
	out := study.TableI().String()
	for _, want := range []string{"m1", "m10", "30", "w1", "w9", "RND(2-10)", "RND(101-1000)", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableII(t *testing.T) {
	s := tiny(t)
	out := s.TableII().String()
	for _, want := range []string{"CRC32", "histo", "MiBench", "Parboil"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestFigures(t *testing.T) {
	s := tiny(t)
	for _, tech := range core.Techniques() {
		f1 := s.Figure1(tech).String()
		if !strings.Contains(f1, "CRC32") || !strings.Contains(f1, "SDC") {
			t.Errorf("Figure 1 incomplete:\n%s", f1)
		}
		eb := s.ExceptionBreakdown(tech).String()
		if !strings.Contains(eb, "segfault") || !strings.Contains(eb, "misaligned") {
			t.Errorf("exception breakdown incomplete:\n%s", eb)
		}
		cc := s.CandidateComposition(tech).String()
		if !strings.Contains(cc, "address") || !strings.Contains(cc, "Detection%") {
			t.Errorf("candidate composition incomplete:\n%s", cc)
		}
		f2 := s.Figure2(tech).String()
		if !strings.Contains(f2, "win-size = 0") {
			t.Errorf("Figure 2 incomplete:\n%s", f2)
		}
		f3 := s.Figure3(tech).String()
		if !strings.Contains(f3, "ALL") || !strings.Contains(f3, ">10") {
			t.Errorf("Figure 3 incomplete:\n%s", f3)
		}
	}
	f4 := s.Figure45(core.InjectOnRead).String()
	if !strings.Contains(f4, "Figure 4") || !strings.Contains(f4, "RND(11-100)") {
		t.Errorf("Figure 4 incomplete:\n%s", f4)
	}
	f5 := s.Figure45(core.InjectOnWrite).String()
	if !strings.Contains(f5, "Figure 5") {
		t.Errorf("Figure 5 incomplete:\n%s", f5)
	}
}

func TestTableIIIAndBestConfig(t *testing.T) {
	s := tiny(t)
	tb, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "CRC32") || !strings.Contains(out, "histo") {
		t.Fatalf("Table III incomplete:\n%s", out)
	}
	best, err := s.BestConfig("CRC32", core.InjectOnRead)
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.Win.IsZero() {
		t.Fatal("Table III must search multi-register (win > 0) campaigns only")
	}
	if best.Config.MaxMBF != 2 && best.Config.MaxMBF != 30 {
		t.Fatalf("best config outside grid: %+v", best.Config)
	}
}

func TestTransitionsAndTableIV(t *testing.T) {
	s := tiny(t)
	trans, err := s.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.Programs {
		for _, tech := range core.Techniques() {
			tr := trans[name][tech]
			if tr == nil {
				t.Fatalf("missing transitions for %s %s", name, tech)
			}
			if tr.Matrix.Total() != s.Opts.N {
				t.Fatalf("%s %s: matrix total = %d, want %d", name, tech, tr.Matrix.Total(), s.Opts.N)
			}
			for _, v := range []float64{tr.TranI, tr.TranII, tr.Prunable} {
				if v < 0 || v > 100 {
					t.Fatalf("percentage out of range: %v", v)
				}
			}
		}
	}
	out := s.TableIV(trans).String()
	if !strings.Contains(out, "Tran. I") || !strings.Contains(out, "CRC32") {
		t.Fatalf("Table IV incomplete:\n%s", out)
	}
	answers := s.Answers(trans).String()
	for _, rq := range []string{"RQ1", "RQ2", "RQ3", "RQ4", "RQ5"} {
		if !strings.Contains(answers, rq) {
			t.Errorf("answers missing %s:\n%s", rq, answers)
		}
	}
}

func TestRenderAll(t *testing.T) {
	s := tiny(t)
	var b strings.Builder
	if err := s.RenderAll(&b, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "Table II", "Figure 1", "Figure 2",
		"Figure 3", "Figure 4", "Figure 5", "Table III", "Pruning dividend",
		"Candidate composition", "Exception breakdown", "stuck-at", "RQ1", "EXT"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
	if strings.Contains(out, "Table IV") {
		t.Error("Table IV rendered without transitions")
	}
}

func TestHangFactorAblation(t *testing.T) {
	tb, err := study.HangFactorAblation("histo", core.InjectOnRead, 60, 3, []uint64{2, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"hang factor", "2", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation missing %q:\n%s", want, out)
		}
	}
}

func TestAlignmentAblation(t *testing.T) {
	tb, err := study.AlignmentAblation("CRC32", core.InjectOnRead, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "on") || !strings.Contains(out, "off") {
		t.Fatalf("ablation incomplete:\n%s", out)
	}
}

// TestRunTransitionsMemoized pins the transition-study caching: the
// §IV-C3 pinned campaigns run once per study, and every later caller —
// the markdown renderer, the CSV export, the answers table — receives
// the same result maps instead of re-running the grid.
func TestRunTransitionsMemoized(t *testing.T) {
	s := tiny(t)
	first, err := s.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("transition study returned no programs")
	}
	for name, techs := range first {
		for tech, res := range techs {
			if second[name][tech] != res {
				t.Fatalf("%s %s: transition result re-computed instead of memoized", name, tech)
			}
		}
	}
}

// sdcBlind classifies like core.ExactClassifier except that corrupted
// output counts as Benign, so a campaign judged by it records no SDC.
type sdcBlind struct{}

func (sdcBlind) Name() string { return "test:sdc-blind" }

func (sdcBlind) Classify(golden []byte, res *vm.Result) core.Outcome {
	if o := (core.ExactClassifier{}).Classify(golden, res); o != core.OutcomeSDC {
		return o
	}
	return core.OutcomeBenign
}

// TestTransitionsUseStudyClassifier checks that the §IV-C3 pinned
// reruns judge outcomes with the study's classifier: the transition
// matrix must compare single- and multi-bit outcomes classified alike,
// so under a classifier that never reports an SDC no transition may
// end in one.
func TestTransitionsUseStudyClassifier(t *testing.T) {
	exact, err := tiny(t).RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.Classifier = sdcBlind{}
	s, err := study.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := s.RunTransitions()
	if err != nil {
		t.Fatal(err)
	}
	exactSDC := 0
	for name, techs := range blind {
		for tech, tr := range techs {
			for from := range tr.Matrix.Counts {
				if n := tr.Matrix.Counts[from][core.OutcomeSDC]; n != 0 {
					t.Errorf("%s %s: %d multi-bit reruns classified SDC", name, tech, n)
				}
				exactSDC += exact[name][tech].Matrix.Counts[from][core.OutcomeSDC]
			}
		}
	}
	if exactSDC == 0 {
		t.Fatal("exact transitions record no multi-bit SDC: the check is vacuous")
	}
}

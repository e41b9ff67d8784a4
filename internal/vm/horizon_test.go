package vm

// The injection-horizon differential. An armed plan runs on the fast
// tiers up to the first dynamic index at which it could inject, and only
// from there on through the per-instruction observer tier. Options.
// CountRoles forces every instruction through the observer tier, so it is
// the reference: over the suite workloads, both techniques, the quick
// Table I grid and stuck-at holds, every observable of the default path —
// compiled, token-threaded and convergence-gated alike — must match it.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/xrand"
)

// horizonWin is one win-size of the quick grid (cmd/study -quick);
// lo == hi == 0 is the same-register cluster.
type horizonWin struct{ lo, hi int }

func (w horizonWin) String() string {
	if w.lo != w.hi {
		return fmt.Sprintf("RND(%d-%d)", w.lo, w.hi)
	}
	return fmt.Sprint(w.lo)
}

var (
	quickMaxMBFs = []int{2, 3, 10, 30}
	quickWins    = []horizonWin{{0, 0}, {1, 1}, {4, 4}, {11, 100}, {1000, 1000}}
)

// horizonPlan builds a register plan the way campaigns do: fixed windows
// consume no randomness, random ones draw uniformly per follow-up.
func horizonPlan(onWrite bool, first uint64, maxFlips int, w horizonWin, seed uint64) *Plan {
	pl := &Plan{
		OnWrite:   onWrite,
		FirstCand: first,
		MaxFlips:  maxFlips,
		SameReg:   w.hi == 0,
		PinnedBit: -1,
		Rng:       xrand.ForExperiment(seed, first),
	}
	switch {
	case pl.SameReg:
	case w.lo == w.hi:
		n := uint64(w.lo)
		pl.NextWindow = func(*xrand.Rand) uint64 { return n }
	default:
		lo, hi := w.lo, w.hi
		pl.NextWindow = func(r *xrand.Rand) uint64 { return uint64(r.IntRange(lo, hi)) }
	}
	return pl
}

// horizonGolden is a workload's golden run as a campaign target sees it:
// budgets, candidate spaces, snapshots and the convergence trace.
type horizonGolden struct {
	p     *ir.Program
	base  Options
	gold  *Result
	snaps []*Snapshot
	trace *GoldenTrace
}

// horizonGoldens caches golden runs per suite program across tests and
// fuzz iterations.
var horizonGoldens sync.Map // *ir.Program -> *horizonGolden

func newHorizonGolden(t *testing.T, p *ir.Program) *horizonGolden {
	t.Helper()
	if g, ok := horizonGoldens.Load(p); ok {
		return g.(*horizonGolden)
	}
	gold, err := Run(p, Options{Checkpoint: 512, MaxSnapshots: 64, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g := &horizonGolden{
		p:     p,
		base:  Options{MaxDyn: 10*gold.Dyn + 1000, MaxOutput: 4*len(gold.Output) + 4096},
		gold:  gold,
		snaps: gold.Snapshots,
		trace: gold.Trace,
	}
	horizonGoldens.Store(p, g)
	return g
}

// cands returns the candidate-space size of a technique.
func (g *horizonGolden) cands(onWrite bool) uint64 {
	if onWrite {
		return g.gold.Writes
	}
	return g.gold.ReadSlots
}

// resumeFor returns the latest snapshot preceding candidate first, as
// campaigns resume experiments, or nil.
func (g *horizonGolden) resumeFor(onWrite bool, first uint64) *Snapshot {
	var best *Snapshot
	for _, s := range g.snaps {
		if s.Candidates(onWrite) <= first {
			best = s
		}
	}
	return best
}

// fuzzPlan draws a random plan from z: either technique, up to the
// paper's 30 flips, same-register, fixed or random windows, occasional
// stuck-at holds, a first candidate possibly past the end of the
// candidate space, and a cold start or a random resume point preceding
// it. It returns the plan constructor, the resume snapshot and a label.
func (g *horizonGolden) fuzzPlan(z *fuzzSrc) (mk func() *Plan, resume *Snapshot, label string) {
	onWrite := z.n(2) == 1
	stuck := !onWrite && z.n(4) == 0
	if len(g.snaps) > 0 && z.n(2) == 0 {
		resume = g.snaps[z.n(len(g.snaps))]
	}
	lo := uint64(0)
	if resume != nil {
		lo = resume.Candidates(onWrite)
	}
	first := lo + z.u64()%(g.cands(onWrite)-lo+64)
	flips := 1 + z.n(30)
	var w horizonWin
	if z.n(4) != 0 {
		w.lo = 1 + z.n(100)
		w.hi = w.lo
		if z.n(2) == 0 {
			w.hi += 1 + z.n(1000)
		}
	}
	hold := uint64(1 + z.n(1000))
	high := z.n(2) == 0
	seed := z.u64()
	mk = func() *Plan {
		if stuck {
			return &Plan{Stuck: true, StuckHigh: high, HoldWindow: hold, FirstCand: first,
				PinnedBit: -1, Rng: xrand.ForExperiment(seed, first)}
		}
		return horizonPlan(onWrite, first, flips, w, seed)
	}
	label = fmt.Sprintf("onWrite=%v mbf=%d win=%s stuck=%v(hold %d) cand=%d", onWrite, flips, w, stuck, hold, first)
	if resume != nil {
		label += fmt.Sprintf(" resumed@%d", resume.Dyn)
	}
	return mk, resume, label
}

// check runs mk's plan (optionally resumed) through the observer-tier
// reference and through the default path — compiled, token-threaded
// (NoCompile) and convergence-gated — and demands identical observables.
// It returns the reference and default results.
func (g *horizonGolden) check(t *testing.T, label string, resume *Snapshot, mk func() *Plan) (ref, got *Result) {
	t.Helper()
	run := func(o Options) *Result {
		t.Helper()
		o.Plan = mk()
		o.Resume = resume
		res, err := Run(g.p, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	refOpts := g.base
	refOpts.CountRoles = true
	ref = run(refOpts)
	start := uint64(0)
	if resume != nil {
		start = resume.Dyn
	}
	if ref.Stepped != ref.Dyn-start {
		t.Fatalf("%s: reference stepped %d of %d instructions", label, ref.Stepped, ref.Dyn-start)
	}
	got = run(g.base)
	sameObservables(t, label+" default", got, ref, false)
	interp := g.base
	interp.NoCompile = true
	sameObservables(t, label+" nocompile", run(interp), ref, false)
	conv := g.base
	conv.Trace = g.trace
	sameObservables(t, label+" converge", run(conv), ref, true)
	return ref, got
}

// sameObservables compares every Result field except the observer tier's
// own profile — the role tallies only the reference fills, and Stepped —
// plus, with early set, the convergence provenance (the reference never
// converges).
func sameObservables(t *testing.T, label string, got, want *Result, early bool) {
	t.Helper()
	g, w := *got, *want
	for _, r := range []*Result{&g, &w} {
		r.ReadRoles, r.WriteRoles, r.Stepped = [ir.NumSlotRoles]uint64{}, [ir.NumSlotRoles]uint64{}, 0
		if early {
			// Convergence-gated runs also pre-size their output buffer, so
			// an empty output may be non-nil.
			r.Converged, r.PostKeyed, r.PostKey = false, false, StateKey{}
			if len(r.Output) == 0 {
				r.Output = nil
			}
		}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s:\n got %s\nwant %s", label, obsString(&g), obsString(&w))
	}
}

func obsString(r *Result) string {
	return fmt.Sprintf("stop=%s/%s dyn=%d rs=%d w=%d out=%dB inj=%d first=(bit %d pre %d role %d) dyns=%v conv=%v keyed=%v",
		r.Stop, r.Trap, r.Dyn, r.ReadSlots, r.Writes, len(r.Output), r.Injected,
		r.FirstBit, r.FirstPre, r.FirstRole, r.InjectionDyns, r.Converged, r.PostKeyed)
}

// TestInjectionHorizonDifferential pins the horizon bounds on the 15
// paper workloads: both techniques × the quick grid (max-MBF {2,3,10,30}
// × win {0,1,4,RND(11-100),1000}), cold and resumed, plus stuck-at holds
// of several windows. The extra megapixel workload only multiplies the
// runtime here; TestInjectionHorizonStepsFewer covers it.
func TestInjectionHorizonDifferential(t *testing.T) {
	for _, p := range suitePrograms()[:len(prog.All())] {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g := newHorizonGolden(t, p)
			rng := xrand.New(0x5eed ^ uint64(len(p.Name)))
			for _, onWrite := range []bool{false, true} {
				for _, mbf := range quickMaxMBFs {
					for _, w := range quickWins {
						for k := 0; k < 2; k++ {
							first := rng.Uint64n(g.cands(onWrite))
							var resume *Snapshot
							if k == 1 {
								resume = g.resumeFor(onWrite, first)
							}
							g.check(t, fmt.Sprintf("onWrite=%v mbf=%d win=%s cand=%d", onWrite, mbf, w, first), resume,
								func() *Plan { return horizonPlan(onWrite, first, mbf, w, 7) })
						}
					}
				}
			}
			for _, hold := range []uint64{1, 60, 1000} {
				for k := 0; k < 2; k++ {
					first := rng.Uint64n(g.cands(false))
					high := k == 1
					g.check(t, fmt.Sprintf("stuck-at hold=%d high=%v cand=%d", hold, high, first), g.resumeFor(false, first),
						func() *Plan {
							return &Plan{Stuck: true, StuckHigh: high, HoldWindow: hold, FirstCand: first,
								PinnedBit: -1, Rng: xrand.ForExperiment(11, first)}
						})
				}
			}
		})
	}
}

// TestInjectionHorizonStepsFewer pins the tier's purpose through
// Result.Stepped: on the grid's widest cluster (max-MBF 30 × win 1000),
// resumed like campaign experiments, the default path steps at most a
// tenth of the instructions the observer-tier reference steps — yet at
// least one per injection, since every flip lands on a stepped
// instruction. A fault-free run on the token-threaded tier steps none.
func TestInjectionHorizonStepsFewer(t *testing.T) {
	for _, p := range suitePrograms() {
		g := newHorizonGolden(t, p)
		interp := g.base
		interp.NoCompile = true
		free, err := Run(p, interp)
		if err != nil {
			t.Fatal(err)
		}
		if free.Stepped != 0 {
			t.Errorf("%s: fault-free token-threaded run stepped %d instructions", p.Name, free.Stepped)
		}
		rng := xrand.New(42)
		for _, onWrite := range []bool{false, true} {
			var refSteps, steps uint64
			injected := 0
			for k := 0; k < 16; k++ {
				first := rng.Uint64n(g.cands(onWrite))
				ref, got := g.check(t, fmt.Sprintf("%s onWrite=%v cand=%d", p.Name, onWrite, first),
					g.resumeFor(onWrite, first),
					func() *Plan { return horizonPlan(onWrite, first, 30, horizonWin{1000, 1000}, 3) })
				refSteps += ref.Stepped
				steps += got.Stepped
				injected += got.Injected
			}
			t.Logf("%s onWrite=%v: stepped %d vs %d reference (%.0fx fewer)", p.Name, onWrite,
				steps, refSteps, float64(refSteps)/float64(max(steps, 1)))
			if steps < uint64(injected) {
				t.Errorf("%s onWrite=%v: %d injections but only %d stepped instructions", p.Name, onWrite, injected, steps)
			}
			if 10*steps > refSteps {
				t.Errorf("%s onWrite=%v: default path stepped %d instructions, more than 1/10 of the reference's %d",
					p.Name, onWrite, steps, refSteps)
			}
		}
	}
}

package core_test

// The engine-level injection-horizon differential: campaigns on the
// default path, where armed plans run on the fast tiers up to their
// injection horizon, must record exactly the experiments of the same
// campaigns with every instruction stepped through the VM's observer
// tier (the CountRoles reference, see SetObserveAll). The VM-level suite
// lives in internal/vm/horizon_test.go.

import (
	"fmt"
	"testing"

	"multiflip/internal/core"
	"multiflip/internal/prog"
)

func TestCampaignHorizonDifferential(t *testing.T) {
	configs := []core.Config{
		core.SingleBit(),
		{MaxMBF: 2, Win: core.Win(0)},
		{MaxMBF: 3, Win: core.Win(1)},
		{MaxMBF: 10, Win: core.WinRange(11, 100)},
		{MaxMBF: 30, Win: core.Win(1000)},
	}
	for _, name := range []string{"qsort", "CRC32", "FFT"} {
		bench, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		target, err := core.NewTarget(name, p)
		if err != nil {
			t.Fatal(err)
		}
		// Early exits (convergence, memo) only happen off the reference
		// path, so their counters are not compared; the records are.
		observed := func(run func() (*core.EngineResult, error)) (def, ref *core.EngineResult) {
			t.Helper()
			def, err := run()
			if err != nil {
				t.Fatal(err)
			}
			restore := core.SetObserveAll()
			defer restore()
			ref, err = run()
			if err != nil {
				t.Fatal(err)
			}
			return def, ref
		}
		for _, tech := range core.Techniques() {
			for _, cfg := range configs {
				spec := core.CampaignSpec{
					Target:    target,
					Technique: tech,
					Config:    cfg,
					N:         60,
					Seed:      4242,
					Workers:   1,
					Record:    true,
				}
				def, ref := observed(func() (*core.EngineResult, error) {
					res, err := core.RunCampaign(spec)
					if err != nil {
						return nil, err
					}
					return &res.EngineResult, nil
				})
				sameResult(t, fmt.Sprintf("%s %s %s default vs observer tier", name, tech, cfg), ref, def, false)
			}
		}
		for _, win := range []core.WinSize{core.Win(50), core.WinRange(11, 100)} {
			spec := core.StuckAtSpec{Target: target, Window: win, N: 60, Seed: 31, Workers: 1, Record: true}
			def, ref := observed(func() (*core.EngineResult, error) {
				res, err := core.RunStuckAt(spec)
				if err != nil {
					return nil, err
				}
				return &res.EngineResult, nil
			})
			sameResult(t, fmt.Sprintf("%s stuck-at %s default vs observer tier", name, win), ref, def, false)
		}
	}
}

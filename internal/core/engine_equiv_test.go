package core

import (
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/sched"
)

// equivOptions returns reduced-scale options matching the golden studies'
// shape (warmup fraction, placement policy) so the equivalence sweep
// exercises the same code paths the golden gate does.
func equivOptions(reference bool) Options {
	opt := DefaultOptions()
	opt.Scale = 0.02
	opt.Reference = reference
	return opt
}

// TestEngineEquivalence pins the optimization contract of the cycle
// engine: the batched-advancement engine (machine.Run) must produce
// results identical to the reference engine (machine.RunReference) — same
// wall cycles, same per-program cycle counts, and byte-identical counter
// banks — across workload shapes that exercise every advancement path:
// serial, HT sharing, cross-core teams, oversubscription, four-way SMT,
// and multi-program co-scheduling.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is a long test")
	}
	type equivCase struct {
		cfg config.Configuration
		mc  *machine.Config // nil: the Paxville machine
	}
	var cases []equivCase
	for _, cn := range []string{
		"Serial",
		"HT on -2-1",
		"HT off -2-1",
		"HT off -2-2",
		"HT on -4-1",
		"HT on -8-2",
	} {
		cfg, err := config.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, equivCase{cfg: cfg})
	}
	// Four contexts on one core of a custom machine: the only shape that
	// reaches runSolo's generic window loop and Core.Step's N-way issue
	// arbitration, since the Paxville presets stop at two per core.
	smt4 := machine.PaxvilleSMP()
	smt4.ContextsPerCore = 4
	cfg4 := config.Configuration{Name: "4-way SMT", HT: true, Threads: 4, Chips: 1}
	for th := 0; th < 4; th++ {
		cfg4.Contexts = append(cfg4.Contexts, config.CtxID{Chip: 0, Core: 0, Thread: th})
	}
	cases = append(cases, equivCase{cfg: cfg4, mc: &smt4})

	for _, bm := range []string{"CG", "EP", "LU"} {
		prof, err := profiles.ByName(bm)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			cfg := c.cfg
			t.Run(bm+"/"+cfg.Name, func(t *testing.T) {
				opt, ref := equivOptions(false), equivOptions(true)
				opt.Machine, ref.Machine = c.mc, c.mc
				got, err := RunSingle(prof, cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunSingle(prof, cfg, ref)
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, got, want)
			})
		}
	}
}

// TestEngineEquivalenceMultiProgram covers the pair-study shape: two
// programs co-scheduled, including the symbiotic placement policy.
func TestEngineEquivalenceMultiProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is a long test")
	}
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := profiles.ByName("FT")
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range []string{"HT off -4-2", "HT on -8-2"} {
		cfg, err := config.ByName(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []sched.Policy{sched.Alternate, sched.Symbiotic} {
			t.Run(cn+"/"+pol.String(), func(t *testing.T) {
				opt, ref := equivOptions(false), equivOptions(true)
				opt.Policy, ref.Policy = pol, pol
				got, err := Run(Pair(cg, ft), cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(Pair(cg, ft), cfg, ref)
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, got, want)
			})
		}
	}
}

func compareRuns(t *testing.T, got, want *RunResult) {
	t.Helper()
	if got.WallCycles != want.WallCycles {
		t.Errorf("wall cycles: optimized %d, reference %d", got.WallCycles, want.WallCycles)
	}
	if len(got.Programs) != len(want.Programs) {
		t.Fatalf("program count: optimized %d, reference %d", len(got.Programs), len(want.Programs))
	}
	for i := range got.Programs {
		g, w := &got.Programs[i], &want.Programs[i]
		if g.Cycles != w.Cycles {
			t.Errorf("%s: finish cycle: optimized %d, reference %d", g.Benchmark, g.Cycles, w.Cycles)
		}
		for _, e := range counters.Events() {
			if gv, wv := g.Counters.Get(e), w.Counters.Get(e); gv != wv {
				t.Errorf("%s: %v: optimized %d, reference %d (Δ %+d)",
					g.Benchmark, e, gv, wv, int64(gv)-int64(wv))
			}
		}
	}
}

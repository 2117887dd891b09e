// Command sweep runs the ablation studies called out in DESIGN.md: it
// re-runs the single-program characterization with one design parameter of
// the simulated machine changed, quantifying how much each mechanism
// contributes to the paper's observations.
//
//	sweep -ablation prefetch   # hardware prefetcher disabled
//	sweep -ablation bus        # FSB bandwidth halved
//	sweep -ablation l2         # L2 doubled to 2 MiB per core
//	sweep -ablation smt        # SMT resource partitioning removed
//	sweep -ablation policy     # block instead of alternating placement (pairs)
//	sweep -ablation all
//
// Ablations share every unablated baseline, so a run cache pays off even
// within one invocation; the same -cache-dir as cmd/xeonchar can be
// shared, and -journal/-resume make an interrupted sweep restartable.
// -trace-out and -metrics-out capture the same observability outputs as
// cmd/xeonchar; Ctrl-C cancels between cells with a clean journal tail.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"xeonomp/internal/cache"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/report"
	"xeonomp/internal/runflags"
	"xeonomp/internal/sched"
	"xeonomp/internal/units"
)

// ablation describes one machine variant.
type ablation struct {
	name   string
	detail string
	mutate func(*machine.Config)
	policy *sched.Policy
}

func ablations() []ablation {
	block := sched.Block
	symb := sched.Symbiotic
	return []ablation{
		{
			name:   "prefetch",
			detail: "hardware prefetcher disabled",
			mutate: func(c *machine.Config) { c.PrefetchGate = -1 },
		},
		{
			name:   "bus",
			detail: "FSB bandwidth halved",
			mutate: func(c *machine.Config) { c.FSBBandwidth /= 2 },
		},
		{
			name:   "l2",
			detail: "L2 doubled to 2 MiB per core",
			mutate: func(c *machine.Config) { c.L2.Size = 2 * units.MiB },
		},
		{
			name:   "l2-random",
			detail: "L2 random replacement instead of LRU",
			mutate: func(c *machine.Config) { c.L2.Policy = cache.Random },
		},
		{
			name:   "smt",
			detail: "SMT buffer partitioning and port contention removed",
			mutate: func(c *machine.Config) {
				c.Lat.SMTSharedMLP = 1.0
				c.Lat.SMTClash = 0
			},
		},
		{
			name:   "policy",
			detail: "block placement instead of alternating (multi-program pairs)",
			mutate: func(c *machine.Config) {},
			policy: &block,
		},
		{
			name:   "symbiosis",
			detail: "demand-aware symbiotic placement for a 4-program mix",
			mutate: func(c *machine.Config) {},
			policy: &symb,
		},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the whole program behind main; closing the journal and writing
// the trace/metrics files are defers here, so the error path and Ctrl-C
// cancellation leave complete files behind.
func run() (err error) {
	var (
		which = flag.String("ablation", "all", "prefetch, bus, l2, l2-random, smt, policy, symbiosis or all")
		scale = flag.Float64("scale", 0.5, "instruction-budget scale factor")
	)
	rf := runflags.Register("sweep", "persist the run cache to this directory (shareable with cmd/xeonchar)")
	flag.Parse()

	if err := rf.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	defer func() {
		if ferr := rf.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	optFns, err := rf.Open()
	if err != nil {
		return err
	}
	optFns = append(optFns, core.WithScale(*scale))
	base, err := core.NewOptions(optFns...)
	if err != nil {
		return err
	}

	benches := []string{"CG", "MG", "LU"}
	cfgs := []config.Arch{config.CMT, config.CMPSMP, config.CMTSMP}

	for _, ab := range ablations() {
		if *which != "all" && *which != ab.name {
			continue
		}
		if ab.policy != nil {
			if *ab.policy == sched.Symbiotic {
				err = runSymbiosisAblation(ctx, ab, base)
			} else {
				err = runPairAblation(ctx, ab, base)
			}
			if err != nil {
				return err
			}
			continue
		}
		if err := runSingleAblation(ctx, ab, base, benches, cfgs); err != nil {
			return err
		}
	}
	return nil
}

// runSingleAblation compares per-benchmark speedups with and without the
// machine mutation.
func runSingleAblation(ctx context.Context, ab ablation, base core.Options, benches []string, archs []config.Arch) error {
	varCfg := machine.PaxvilleSMP()
	ab.mutate(&varCfg)
	variant := base
	variant.Machine = &varCfg

	headers := []string{"benchmark"}
	for _, a := range archs {
		headers = append(headers, string(a)+" base", string(a)+" "+ab.name)
	}
	t := report.NewTable(fmt.Sprintf("Ablation %q — %s (speedup over each run's own serial)", ab.name, ab.detail), headers...)

	for _, bn := range benches {
		prof, err := profiles.ByName(bn)
		if err != nil {
			return err
		}
		row := []any{bn}
		for _, a := range archs {
			cfg, err := config.ByArch(a)
			if err != nil {
				return err
			}
			for _, opt := range []core.Options{base, variant} {
				serial, err := core.SerialBaselineContext(ctx, prof, opt)
				if err != nil {
					return err
				}
				res, err := core.RunSingleContext(ctx, prof, cfg, opt)
				if err != nil {
					return err
				}
				row = append(row, core.Speedup(serial.WallCycles, res.WallCycles))
			}
		}
		t.AddF(row...)
	}
	fmt.Println(t.String())
	return nil
}

// runPairAblation compares the CG/FT pair under alternating vs block
// placement.
func runPairAblation(ctx context.Context, ab ablation, base core.Options) error {
	cg, err := profiles.ByName("CG")
	if err != nil {
		return err
	}
	ft, err := profiles.ByName("FT")
	if err != nil {
		return err
	}
	w := core.Pair(cg, ft)

	blockOpt := base
	blockOpt.Policy = *ab.policy

	t := report.NewTable(fmt.Sprintf("Ablation %q — %s", ab.name, ab.detail),
		"config", "program", "alternate speedup", "block speedup")
	baselines := map[string]int64{}
	for _, p := range w.Programs {
		b, err := core.SerialBaselineContext(ctx, p, base)
		if err != nil {
			return err
		}
		baselines[p.Name] = b.WallCycles
	}
	for _, arch := range []config.Arch{config.CMT, config.CMPSMP, config.CMTSMP} {
		cfg, err := config.ByArch(arch)
		if err != nil {
			return err
		}
		alt, err := core.RunContext(ctx, w, cfg, base)
		if err != nil {
			return err
		}
		blk, err := core.RunContext(ctx, w, cfg, blockOpt)
		if err != nil {
			return err
		}
		for gi, p := range w.Programs {
			t.AddF(cfg.Name, p.Name,
				core.Speedup(baselines[p.Name], alt.Programs[gi].Cycles),
				core.Speedup(baselines[p.Name], blk.Programs[gi].Cycles))
		}
	}
	fmt.Println(t.String())
	return nil
}

// runSymbiosisAblation compares alternate vs symbiotic placement for a
// four-program mix (two memory-heavy, two compute-light) on the full HT
// machine — the paper's future-work scheduler direction.
func runSymbiosisAblation(ctx context.Context, ab ablation, base core.Options) error {
	var w core.Workload
	for _, n := range []string{"MG", "EP", "SP", "EP"} {
		p, err := profiles.ByName(n)
		if err != nil {
			return err
		}
		w.Programs = append(w.Programs, p)
	}
	cfg, err := config.ByArch(config.CMTSMP)
	if err != nil {
		return err
	}
	symOpt := base
	symOpt.Policy = sched.Symbiotic

	t := report.NewTable(fmt.Sprintf("Ablation %q — %s", ab.name, ab.detail),
		"program", "alternate speedup", "symbiotic speedup")
	alt, err := core.RunContext(ctx, w, cfg, base)
	if err != nil {
		return err
	}
	sym, err := core.RunContext(ctx, w, cfg, symOpt)
	if err != nil {
		return err
	}
	for gi, p := range w.Programs {
		serial, err := core.SerialBaselineContext(ctx, p, base)
		if err != nil {
			return err
		}
		t.AddF(fmt.Sprintf("%s[%d]", p.Name, gi),
			core.Speedup(serial.WallCycles, alt.Programs[gi].Cycles),
			core.Speedup(serial.WallCycles, sym.Programs[gi].Cycles))
	}
	fmt.Println(t.String())
	return nil
}

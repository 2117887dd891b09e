// Command xeonchar regenerates the paper's tables and figures on the
// simulated two-way dual-core Hyper-Threaded Xeon SMP.
//
// Usage:
//
//	xeonchar -all                 # everything (Table 1/2, Figures 2-5, Section 3)
//	xeonchar -fig 3               # one figure (2, 3, 4 or 5)
//	xeonchar -table 2             # one table (1 or 2)
//	xeonchar -lmbench             # the Section 3 LMbench calibration
//	xeonchar -scale 0.25 -fig 2   # quicker, smaller instruction budgets
//	xeonchar -csv -fig 3          # CSV instead of aligned text
//
// Long regenerations are cacheable, resumable, and observable:
//
//	xeonchar -all -cache-dir .xeonchar-cache   # warm second run is mostly lookups
//	xeonchar -all -journal run.jsonl           # record every completed cell
//	xeonchar -all -journal run.jsonl -resume   # pick up an interrupted run
//	xeonchar -all -progress 5s                 # progress/ETA lines on stderr
//	xeonchar -all -trace-out trace.json        # Chrome trace (chrome://tracing, Perfetto)
//	xeonchar -all -metrics-out metrics.json    # registry snapshot (cache traffic, rates)
//	xeonchar -all -cpuprofile cpu.pprof        # CPU profile with per-cell pprof labels
//
// Ctrl-C cancels between cells: the journal keeps every completed cell
// with a clean tail, and the trace/metrics files are still written.
//
// Paper-fidelity regression (see internal/golden and EXPERIMENTS.md):
//
//	xeonchar -update-golden -scale 0.1         # regenerate testdata/golden
//	xeonchar -check testdata/golden -scale 0.1 # fail on any drifted paper metric
//	xeonchar -export-json out -scale 0.1       # write the artifacts elsewhere
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/report"
	"xeonomp/internal/runflags"
	"xeonomp/internal/sched"
	"xeonomp/internal/stats"
	"xeonomp/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xeonchar:", err)
		os.Exit(1)
	}
}

// run is the whole program behind main. Everything that must happen on the
// way out — closing the journal, stopping the CPU profile, writing the
// trace and metrics files — is a defer here, so both the error path and
// Ctrl-C cancellation (which unwinds through the study's context, not
// os.Exit) leave complete files behind.
func run() (err error) {
	var (
		fig     = flag.Int("fig", 0, "figure to regenerate (2, 3, 4, 5)")
		table   = flag.Int("table", 0, "table to regenerate (1, 2)")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		lmb     = flag.Bool("lmbench", false, "run the Section 3 LMbench calibration")
		scale   = flag.Float64("scale", 1.0, "instruction-budget scale factor")
		seed    = flag.Uint64("seed", 1, "workload seed (trial number)")
		policy  = flag.String("policy", "alternate", "thread placement: alternate, block, round-robin, symbiotic")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outdir  = flag.String("outdir", "", "also write each table as a CSV file into this directory")
		svgdir  = flag.String("svgdir", "", "also render Figures 3 and 5 as SVG into this directory")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers for the studies")
		jsonOut = flag.String("json", "", "write the single-program study as JSON to this file")

		exportJSON = flag.String("export-json", "", "run every study and write golden JSON artifacts into this directory")
		checkDir   = flag.String("check", "", "run every study and compare against the golden artifacts in this directory, failing on drift")
		updateGold = flag.Bool("update-golden", false, "regenerate the checked-in golden artifacts under "+goldenDir)
		machCfg    = flag.String("machine", "", "load the platform from a JSON machine config (see machine.Config.WriteJSON)")
		warmup     = flag.Float64("warmup", 0.35, "fraction of the run excluded from counters")
		phases     = flag.String("phases", "", "print a VTune-style phase time series for the named benchmark (e.g. CG)")
		archStr    = flag.String("arch", string(config.CMT), "architecture for -phases (Table-1 name, e.g. \"CMT\")")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file; samples carry per-cell pprof labels")
	)
	rf := runflags.Register("xeonchar", "persist the run cache to this directory (warm reruns become lookups)")
	flag.Parse()

	if *phases == "" && *exportJSON == "" && *checkDir == "" && !*updateGold &&
		!*all && *fig == 0 && *table == 0 && !*lmb {
		flag.Usage()
		os.Exit(2)
	}
	if err := rf.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "xeonchar:", err)
		os.Exit(2)
	}
	pol, err := sched.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xeonchar:", err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancel the context; the studies stop between cells
	// and the deferred writers below still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	defer func() {
		if ferr := rf.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	runOpts, err := rf.Open()
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, cerr := os.Create(*cpuProfile)
		if cerr != nil {
			return cerr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			_ = f.Close() // the profile error is the one worth reporting
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	optFns := append(runOpts,
		core.WithScale(*scale),
		core.WithSeed(*seed),
		core.WithWorkers(*workers),
		core.WithWarmupFrac(*warmup),
		core.WithPolicy(pol),
	)
	if *machCfg != "" {
		f, err := os.Open(*machCfg)
		if err != nil {
			return err
		}
		mc, err := machine.LoadConfig(f)
		_ = f.Close() // read-only; the load error is the one that matters
		if err != nil {
			return err
		}
		optFns = append(optFns, core.WithMachine(&mc))
	}

	opt, err := core.NewOptions(optFns...)
	if err != nil {
		return err
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	emit := func(t *report.Table) error {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
		if *outdir != "" {
			name := sanitize(t.Title)
			if err := os.WriteFile(filepath.Join(*outdir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
				return err
			}
			j, err := t.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outdir, name+".json"), j, 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	if *phases != "" {
		return runPhases(ctx, *phases, *archStr, opt, emit)
	}

	if *exportJSON != "" || *checkDir != "" || *updateGold {
		return runGolden(ctx, opt, *exportJSON, *checkDir, *updateGold)
	}

	if *all || *lmb {
		if err := runLmbench(emit); err != nil {
			return err
		}
	}
	if *all || *table == 1 {
		if err := emit(core.Table1Report()); err != nil {
			return err
		}
	}

	var single *core.SingleStudy
	needSingle := *all || *fig == 2 || *fig == 3 || *table == 2 || *jsonOut != ""
	if needSingle {
		fmt.Fprintf(os.Stderr, "running single-program study (6 benchmarks x 8 configurations, scale %.2f)...\n", *scale)
		single = core.NewSingleStudy()
		if err := single.Run(ctx, opt); err != nil {
			return err
		}
	}
	if *all || *fig == 2 {
		tables, err := single.Figure2Tables()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
	}
	if *all || *fig == 3 {
		t, err := single.Figure3Table()
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
		if *svgdir != "" {
			if err := writeFigure3SVG(*svgdir, single); err != nil {
				return err
			}
		}
	}
	if *all || *table == 2 {
		t, err := single.Table2Report()
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := single.WriteJSON(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *all || *fig == 4 {
		fmt.Fprintf(os.Stderr, "running multi-program study (3 workloads x 8 configurations)...\n")
		pairs := core.NewPairStudy()
		if err := pairs.Run(ctx, opt); err != nil {
			return err
		}
		tables, err := pairs.Figure4Tables()
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
	}
	if *all || *fig == 5 {
		fmt.Fprintf(os.Stderr, "running cross-product study (21 pairs x 7 configurations)...\n")
		cross := core.NewCrossStudy()
		if err := cross.Run(ctx, opt); err != nil {
			return err
		}
		fmt.Println(cross.Figure5Plot())
		if *svgdir != "" {
			if err := writeFigure5SVG(*svgdir, cross); err != nil {
				return err
			}
		}
	}
	return nil
}

func runLmbench(emit func(*report.Table) error) error {
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		return err
	}
	r, err := lmbench.Measure(m)
	if err != nil {
		return err
	}
	t := report.NewTable("Section 3 — LMbench calibration (paper targets in parentheses)",
		"measurement", "simulated", "paper")
	t.Add("L1 latency", fmt.Sprintf("%.2f ns", r.L1Ns), "1.43 ns")
	t.Add("L2 latency", fmt.Sprintf("%.2f ns", r.L2Ns), "10.6 ns")
	t.Add("memory latency", fmt.Sprintf("%.2f ns", r.MemNs), "136.85 ns")
	t.Add("read bandwidth, 1 chip", fmt.Sprintf("%.2f GB/s", r.ReadBW1/units.GB), "3.57 GB/s")
	t.Add("write bandwidth, 1 chip", fmt.Sprintf("%.2f GB/s", r.WriteBW1/units.GB), "1.77 GB/s")
	t.Add("read bandwidth, 2 chips", fmt.Sprintf("%.2f GB/s", r.ReadBW2/units.GB), "4.43 GB/s")
	t.Add("write bandwidth, 2 chips", fmt.Sprintf("%.2f GB/s", r.WriteBW2/units.GB), "2.6 GB/s")
	return emit(t)
}

// runPhases runs one benchmark with the counter sampler attached and prints
// the metric time series — the phase behaviour view the paper's VTune
// methodology produces.
func runPhases(ctx context.Context, bench, arch string, opt core.Options, emit func(*report.Table) error) error {
	prof, err := profiles.ByName(bench)
	if err != nil {
		return err
	}
	cfg, err := config.ByArch(config.Arch(arch))
	if err != nil {
		return err
	}
	if opt.SampleInterval <= 0 {
		opt.SampleInterval = 500_000
	}
	res, err := core.RunSingleContext(ctx, prof, cfg, opt)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s on %s — %d-cycle sampling windows", bench, cfg.Name, opt.SampleInterval),
		"window", "cycles", "CPI", "L1 miss", "L2 miss", "BP %", "stall %", "pf %")
	for i, s := range res.Samples {
		m := s.Metrics()
		t.AddF(i, s.End-s.Start, m.CPI, m.L1MissRate, m.L2MissRate, m.BranchPredRate, m.StalledPct, m.PrefetchBusPct)
	}
	return emit(t)
}

// sanitize turns a table title into a file name.
func sanitize(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-' || r == '.':
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "table"
	}
	if len(out) > 60 {
		out = out[:60]
	}
	return string(out)
}

// writeFigure3SVG renders the speedup bars as figure3.svg.
func writeFigure3SVG(dir string, s *core.SingleStudy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var seriesNames []string
	for _, c := range s.Configs {
		if c.Arch != config.Serial {
			seriesNames = append(seriesNames, c.Name)
		}
	}
	values := make([][]float64, len(s.Benchmarks))
	for bi, bn := range s.Benchmarks {
		for _, cn := range seriesNames {
			v, err := s.Speedup(bn, cn)
			if err != nil {
				return err
			}
			values[bi] = append(values[bi], v)
		}
	}
	svg, err := report.BarChartSVG("Figure 3 — Speedup over serial", s.Benchmarks, seriesNames, values)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "figure3.svg"), []byte(svg), 0o644)
}

// writeFigure5SVG renders the cross-product boxes as figure5.svg.
func writeFigure5SVG(dir string, s *core.CrossStudy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var labels []string
	var boxes []stats.BoxPlot
	for _, cfg := range s.Configs {
		labels = append(labels, cfg.Name)
		boxes = append(boxes, s.Boxes[cfg.Name])
	}
	svg, err := report.BoxPlotSVG("Figure 5 — Multi-programmed pair speedups", labels, boxes)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "figure5.svg"), []byte(svg), 0o644)
}

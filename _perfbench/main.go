// Command perfbench is the repository benchmark. It drives the simulator
// through three workloads from one process and measures every layer from
// outside: spans it records around the public seams (core.Backend,
// server.Handler, api.Client), a CPU profile bucketed by module package,
// the internal/obs registry (read only), and the modelled event counts of
// the returned results. Nothing under internal/ knows it is measured.
//
// Run it from the repository root:
//
//	bash _perfbench/run.sh --workload golden-cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The command exits 1 when
// any cell failed, was refused or returned wrong output, and 2 on a usage
// or set-up error. README.md lists every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples is the sample count behind a percentile, printed on the
	// human-readable line; 0 for other metrics.
	samples int
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: golden-cold, serve-warm or fleet-resume")
		seed    = flag.Uint64("seed", 1, "input seed; golden-cold compares with testdata/golden at seed 1")
		seconds = flag.Int("seconds", 30, "measured seconds per phase")
		traced  = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seed >= 1, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := run(ctx, *name, setup, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printResult(os.Stdout, *name, res)
	if !res.Correct || res.Failed > 0 {
		stop()
		os.Exit(1)
	}
}

// run sets the workload up, measures it and checks its outputs. A nil
// result means nothing was measured; a non-nil result with an error is
// a measurement whose cells failed.
func run(ctx context.Context, name string, setup setupFunc, seed uint64, d time.Duration, traced bool) (*result, error) {
	var (
		env    environment
		setups []float64
	)
	// Set up at least setupReps times, and more while the set-ups
	// together take under setupMin, so a set-up of milliseconds is still
	// the median of many; the last one is measured.
	var spent float64
	for i := 0; ; i++ {
		t := time.Now()
		e, err := setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += setups[i]
		if i+1 >= setupReps && (spent >= setupMin.Seconds() || i+1 >= maxSetupReps) {
			env = e
			break
		}
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	defer func() {
		err := errors.Join(env.close(), os.RemoveAll(workRoot()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing:", err)
		}
	}()
	plain := newProbe(false)
	runErr := env.measure(ctx, d, plain)
	var traceProbe *probe
	var prof *cpuProfile
	if traced && runErr == nil {
		traceProbe = newProbe(true)
		prof, runErr = profiled(func() error { return env.measure(ctx, d, traceProbe) })
	}
	mismatches, err := env.verify(ctx)
	runErr = errors.Join(runErr, err)

	res := &result{Metrics: map[string]metric{}}
	wrong := mismatches
	for _, p := range []*probe{plain, traceProbe} {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
			wrong += p.wrong
		}
	}
	res.Failed += mismatches
	if res.Failed > res.Attempted {
		res.Attempted = res.Failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = wrong == 0 && runErr == nil
	if traced {
		if traceProbe == nil {
			return res, runErr
		}
		layers := perLayer(plain, traceProbe, prof, env)
		layers["failed_frac"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "1"}
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(name, plain, setups)
	}
	return res, runErr
}

// printResult writes one human-readable line per metric, then the
// result as one JSON line, last.
func printResult(out io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%s %-28s %14.6g %s", workload, n, m.Value, m.Unit)
		if m.samples > 0 {
			fmt.Fprintf(out, " (n=%d)", m.samples)
		}
		fmt.Fprintln(out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode; report it as such.
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(2)
	}
	fmt.Fprintln(out, string(line))
}

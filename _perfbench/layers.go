package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"xeonomp/internal/counters"
	"xeonomp/internal/obs"
)

// endToEnd computes the metrics a user of the workload sees, from an
// untraced phase: each rate and percentile is the median of its values
// over the phase's slices.
func endToEnd(workload string, p *probe, setups []float64) map[string]metric {
	var rate, sim, p50, p95 []float64
	for _, s := range p.slices {
		rate = append(rate, float64(s.cells)/s.secs)
		sim = append(sim, float64(s.simCycles)/s.secs)
		p50 = append(p50, percentile(s.lat, 0.50)/1e6)
		p95 = append(p95, percentile(s.lat, 0.95)/1e6)
	}
	simRate := median(sim)
	if workload == "golden-cold" {
		// The engine's own count, which also covers LMbench's runs.
		simRate = float64(counterDelta(p, obs.MetricMachineCycles)) / p.elapsed.Seconds()
	}
	n := len(p.lat)
	return map[string]metric{
		"setup_s":          {Value: median(setups), Unit: "s"},
		"cells_per_s":      {Value: median(rate), Unit: "1/s"},
		"sim_cycles_per_s": {Value: simRate, Unit: "1/s"},
		"latency_p50_ms":   {Value: median(p50), Unit: "ms", samples: n},
		"latency_p95_ms":   {Value: median(p95), Unit: "ms", samples: n},
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MB"},
	}
}

// perLayer computes the per-layer metrics from the traced phase t, with
// the untraced phase plain for the tracing overhead.
func perLayer(plain, t *probe, prof *cpuProfile, env environment) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	perCell := func(v float64) float64 {
		if t.cells == 0 {
			return 0
		}
		return v / float64(t.cells)
	}

	// CPU profile: self time per layer, the engine split by cell kind,
	// and what no layer covers.
	for _, b := range selfBuckets {
		put(b+".self_s", "s", prof.self[b])
	}
	for _, k := range []string{"engine.cg", "engine.other", "engine.ht_on", "engine.ht_off"} {
		put(k+".self_s", "s", prof.engine[k])
	}
	unattributed := 0.0
	if prof.total > 0 {
		unattributed = prof.unattributed / prof.total
	}
	put("layers.unattributed_frac", "1", unattributed)
	put("profile.cpu_s", "s", prof.total)
	overhead := 0.0
	if plain.cells > 0 && t.elapsed > 0 {
		overhead = 1 - (float64(t.cells)/t.elapsed.Seconds())/(float64(plain.cells)/plain.elapsed.Seconds())
	}
	put("trace.overhead_frac", "1", overhead)
	put("core.key_hash_us", "us", perCell(prof.keyHash)*1e6)

	// Modelled events of the cells the engine computed.
	e := &t.engine
	sum := func(evs ...counters.Event) float64 {
		var s uint64
		for _, ev := range evs {
			s += e.Get(ev)
		}
		return float64(s)
	}
	put("sim.instructions", "count", sum(counters.Instructions))
	put("sim.cycles", "count", sum(counters.Cycles))
	put("sim.computed_cells", "count", float64(t.engineCells))
	put("cache.accesses", "count", sum(counters.L1DAccess, counters.L2Access, counters.TCAccess))
	put("cache.misses", "count", sum(counters.L1DMiss, counters.L2Miss, counters.TCMiss))
	put("tlb.accesses", "count", sum(counters.ITLBAccess, counters.DTLBAccess))
	put("branch.resolves", "count", sum(counters.BranchRetired))
	put("bus.transactions", "count", sum(counters.BusDemandRead, counters.BusRFO, counters.BusWriteback, counters.BusPrefetch, counters.BusInvalidate))

	// The obs registry, read before and after the traced phase.
	for _, c := range []string{obs.MetricMachineRuns, obs.MetricMachinePoolBuilds, obs.MetricRuncacheDiskHits,
		obs.MetricJournalReplayServes, obs.MetricShardCellsSent, obs.MetricShardRetries, obs.MetricShardFailovers} {
		put(c, "count", float64(counterDelta(t, c)))
	}
	hits := counterDelta(t, obs.MetricRuncacheMemHits) + counterDelta(t, obs.MetricRuncacheDiskHits)
	lookups := hits + counterDelta(t, obs.MetricRuncacheMisses)
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	put("runcache.hit_ratio", "1", ratio)
	put("runcache.lookup_us", "us", histMean(t, obs.MetricRuncacheLookupNs)/1e3)
	put("journal.append_us", "us", histMean(t, obs.MetricJournalAppendNs)/1e3)
	put("journal.open_ms", "ms", meanNs(t.journalOpens)/1e6)
	put("core.worker_utilization", "1", t.after.Gauges[obs.MetricCoreWorkerUtil])
	put("golden.compare_s", "s", t.goldenCompare.Seconds())
	put("allocs_per_cell", "count", perCell(float64(t.mallocs)))

	// Spans: per-cell time at each seam and the differences between
	// nested seams of the same cell.
	s := spanStats(t.spans)
	backend := s.mean[layerFrontend]
	if backend == 0 {
		backend = s.mean[layerServerBackend]
	}
	put("core.backend_us", "us", backend/1e3)
	put("server.handler_us", "us", s.mean[layerHandler]/1e3)
	put("server.overhead_us", "us", s.gap(layerHandler, layerServerBackend)/1e3)
	put("http.hop_us", "us", s.gap(layerClient, layerHandler)/1e3)
	put("shard.hop_us", "us", s.gap(layerShard, layerHandler)/1e3)

	for name, v := range drivers(env.harness()) {
		put(name, "ns", v)
	}
	return m
}

// spanSummary holds per-layer span means and per-cell durations.
type spanSummary struct {
	mean  map[layer]float64
	cells map[uint64]map[layer]int64
}

func spanStats(spans []span) spanSummary {
	s := spanSummary{mean: map[layer]float64{}, cells: map[uint64]map[layer]int64{}}
	n := map[layer]int{}
	for _, sp := range spans {
		d := sp.end - sp.start
		s.mean[sp.layer] += float64(d)
		n[sp.layer]++
		if sp.cell == 0 {
			continue
		}
		c := s.cells[sp.cell]
		if c == nil {
			c = map[layer]int64{}
			s.cells[sp.cell] = c
		}
		c[sp.layer] += d
	}
	for l := range s.mean {
		s.mean[l] /= float64(n[l])
	}
	return s
}

// gap is the mean, over cells with both spans, of the outer span's
// duration minus the inner one's: the outer layer's own time.
func (s spanSummary) gap(outer, inner layer) float64 {
	var sum float64
	n := 0
	for _, c := range s.cells {
		o, ok1 := c[outer]
		i, ok2 := c[inner]
		if ok1 && ok2 {
			sum += float64(o - i)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func counterDelta(p *probe, name string) uint64 {
	return p.after.Counters[name] - p.before.Counters[name]
}

func histMean(p *probe, name string) float64 {
	a, b := p.after.Histograms[name], p.before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
}

func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// percentile returns the nearest-rank q-quantile of v (0 for no samples).
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999999) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the memory the Go runtime obtained where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

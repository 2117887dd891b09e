package main

import (
	"context"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/counters"
	"xeonomp/internal/obs"
)

// layer names one public seam the benchmark wraps with a span.
type layer uint8

const (
	// layerClient is the api.Client.RunCell round trip (serve-warm).
	layerClient layer = iota
	// layerFrontend is the Options.Backend call a study makes per cell
	// (golden-cold, fleet-resume).
	layerFrontend
	// layerShard is the shard.Shard call under the frontend's
	// core.Cached tier (fleet-resume).
	layerShard
	// layerHandler is the http.Handler around server.Handler().
	layerHandler
	// layerServerBackend is the backend passed as server.Config.Backend.
	layerServerBackend
)

// span is one timed call at a seam. Spans of one cell share its id;
// times are nanoseconds since the probe started.
type span struct {
	cell       uint64
	layer      layer
	start, end int64
}

// probe collects one measured phase: the latency and outcome of every
// cell at the workload's outermost layer and, when traced, the spans of
// every seam and the modelled events of every cell the engine computed.
// Wrappers report to the probe their seam's current phase points at, so
// set-up and checking traffic is never counted.
type probe struct {
	traced bool
	t0     time.Time

	mu        sync.Mutex
	lat       []int64 // outermost-layer latency per completed cell, ns
	spans     []span
	cells     int
	attempted int
	failed    int
	wrong     int   // failed cells whose reply was wrong, not refused or errored
	simCycles int64 // Σ WallCycles of the cells returned at the outermost layer
	// results holds the cells returned at the outermost layer, by
	// cellName, when the workload checks them.
	results map[string]*core.RunResult
	// engine sums the counters of cells the engine computed (not served).
	engine      counters.Set
	engineCells int
	shardCalls  int

	elapsed time.Duration // Σ timed windows
	// slices split the phase into steady pieces (a second of serve-warm,
	// a round of fleet-resume, a pass of golden-cold); the end-to-end
	// figures are medians over them, so a burst of interference on a
	// shared host moves one slice, not the run.
	slices  []slice
	cutAt   slice  // the running totals at the last cut
	mallocs uint64 // heap allocations inside the timed windows
	before  obs.Snapshot
	after   obs.Snapshot
	// journalOpens are the read phase's journal.Open times, ns.
	journalOpens []int64
	// goldenCompare is the time golden.Compare took, when it ran.
	goldenCompare time.Duration
}

func newProbe(traced bool) *probe {
	return &probe{traced: traced, t0: time.Now(), results: map[string]*core.RunResult{}}
}

// slice is one piece of a phase, or running totals at a cut.
type slice struct {
	secs      float64
	cells     int
	simCycles int64
	lat       []int64
}

// cut closes the current slice.
func (p *probe) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := slice{
		secs:      p.elapsed.Seconds() - p.cutAt.secs,
		cells:     p.cells - p.cutAt.cells,
		simCycles: p.simCycles - p.cutAt.simCycles,
		lat:       p.lat[len(p.cutAt.lat):],
	}
	if s.secs > 0 {
		p.slices = append(p.slices, s)
	}
	p.cutAt = slice{secs: p.elapsed.Seconds(), cells: p.cells, simCycles: p.simCycles, lat: p.lat}
}

// begin and end bracket a phase: the obs registry is read, never reset.
func (p *probe) begin() { p.before = obs.Default.Snapshot() }
func (p *probe) end()   { p.after = obs.Default.Snapshot() }

// timed runs f inside the phase's measured time, counting its wall time
// and heap allocations.
func (p *probe) timed(f func() error) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t := time.Now()
	err := f()
	p.elapsed += time.Since(t)
	runtime.ReadMemStats(&ms)
	p.mallocs += ms.Mallocs - m0
	return err
}

// finish records one cell at the outermost layer. A cell cut short by
// the caller's cancellation was not attempted.
// res, when given, is kept for the workload's checks.
func (p *probe) finish(name string, d time.Duration, wallCycles int64, res *core.RunResult, err, ctxErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if ctxErr == nil {
			p.attempted++
			p.failed++
		}
		return
	}
	p.attempted++
	p.cells++
	p.lat = append(p.lat, int64(d))
	p.simCycles += wallCycles
	if res != nil {
		p.results[name] = res
	}
}

func (p *probe) span(cell uint64, l layer, start, end time.Time) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.spans = append(p.spans, span{cell: cell, layer: l, start: int64(start.Sub(p.t0)), end: int64(end.Sub(p.t0))})
	p.mu.Unlock()
}

func (p *probe) computed(res *core.RunResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range res.Programs {
		p.engine.Merge(&res.Programs[i].Counters)
	}
	p.engineCells++
}

// cellName identifies a cell in the results maps.
func cellName(w core.Workload, cfg config.Configuration) string { return w.Name() + "|" + cfg.Name }

// seam points the wrappers of one environment at the current phase's
// probe; nil between phases.
type seam struct{ cur atomic.Pointer[probe] }

// cellKey carries a traced cell's id through contexts, across HTTP as
// the cellHeader.
type cellKey struct{}

const cellHeader = "X-Perfbench-Cell"

var cellSeq atomic.Uint64

func cellOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(cellKey{}).(uint64)
	return id
}

func withCell(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, cellKey{}, id)
}

// spanBackend is a core.Backend wrapper at one seam.
type spanBackend struct {
	s     *seam
	inner core.Backend
	layer layer
	// outer marks the workload's outermost layer: it times each cell's
	// latency, counts outcomes and starts the cell's span id.
	outer bool
	// engine marks a wrapper directly around core.Local(): cells it
	// reports as not served were computed by the engine.
	engine bool
}

func (b *spanBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	p := b.s.cur.Load()
	if p == nil {
		return b.inner.RunCell(ctx, w, cfg, opt)
	}
	id := cellOf(ctx)
	if p.traced && b.outer && id == 0 {
		id = cellSeq.Add(1)
		ctx = withCell(ctx, id)
	}
	start := time.Now()
	res, cached, err := b.inner.RunCell(ctx, w, cfg, opt)
	end := time.Now()
	if b.outer {
		var wall int64
		if res != nil {
			wall = res.WallCycles
		}
		p.finish(cellName(w, cfg), end.Sub(start), wall, res, err, ctx.Err())
	}
	if b.layer == layerShard {
		p.mu.Lock()
		p.shardCalls++
		p.mu.Unlock()
	}
	if p.traced {
		p.span(id, b.layer, start, end)
		if b.engine && err == nil && !cached {
			p.computed(res)
		}
	}
	return res, cached, err
}

// handler wraps an http.Handler with a handler span, moving the cell id
// from the request header into the request context.
func (s *seam) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := s.cur.Load()
		if p == nil || !p.traced {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(cellHeader), 10, 64)
		if id != 0 {
			r = r.WithContext(withCell(r.Context(), id))
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		p.span(id, layerHandler, start, time.Now())
	})
}

// cellTransport sends a traced cell's id as the cellHeader.
type cellTransport struct{ base http.RoundTripper }

func (t cellTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := cellOf(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(cellHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// newHTTPClient returns a client keeping at most conns connections to
// each host, carrying cell ids.
func newHTTPClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: cellTransport{base: tr}}, tr
}

// checking runs f under the perfbench=check pprof label, so output checks
// inside a profiled phase are left out of the layer attribution.
func checking(ctx context.Context, f func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels(checkLabel, "1"), f)
}

const checkLabel = "perfbench-check"

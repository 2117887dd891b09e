package core

import (
	"context"
	"sync"

	"xeonomp/internal/config"
	"xeonomp/internal/obs"
)

// Process-wide observability series for the in-flight dedupe layer:
// leaders computed a cell while identical requests waited; shared counts
// the waiters that joined an identical in-flight cell instead of
// simulating it.
var (
	obsFlightLeaders = obs.NewCounter(obs.MetricCoreFlightLeaders)
	obsFlightShared  = obs.NewCounter(obs.MetricCoreFlightShared)
)

// Backend is the seam between study orchestration and cell execution.
// Studies (experiments.go) decide *which* cells to run and how to reduce
// them; a Backend decides *where and how* one cell runs. RunContext
// dispatches every cell through Options.Backend, so swapping the backend
// — local in-process execution, in-flight dedupe in front of it, a
// concurrency gate, or (eventually) a remote shard — changes nothing
// about study results: the golden artifacts and determinism pins are the
// contract every implementation must honor.
//
// RunCell executes (or serves) one simulation cell. cached reports
// whether the result was served from a cache, journal, or an identical
// in-flight computation rather than simulated by this call; RunContext
// owns the progress and metric accounting built on it. Implementations
// must be safe for concurrent use: the study drivers call RunCell from
// Options.Workers goroutines at once.
type Backend interface {
	RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (res *RunResult, cached bool, err error)
}

// engine is the cycle engine as a Backend: every call simulates the
// cell in process, with no cache or journal of its own.
type engine struct{}

func (engine) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	res, err := runUncached(w, cfg, opt)
	return res, false, err
}

// local is built once so RunContext's default dispatch does not allocate.
var local = Cached(engine{})

// Local returns the in-process Backend, Cached(engine): the run cache
// and journal tiers of the Options it is handed over the cycle engine.
// It is stateless; every call reads its cache/journal wiring from opt.
func Local() Backend { return local }

type cachedBackend struct{ inner Backend }

// Cached wraps inner with the one cache/journal tier of this package:
// cells are served from Options.Cache or the replayed Options.Journal
// when possible (a corrupt or stale entry is recomputed, never
// trusted), and every cell the inner backend returns is recorded to
// both. Local() is Cached over the cycle engine; a sharding frontend
// needs it too — without it, a daemon scattering cells to workers would
// have no journal of its own to resume from and no cache to serve warm
// reruns out of. Layer it innermost-but-one: Dedupe(Gate(Cached(remote))).
func Cached(inner Backend) Backend { return cachedBackend{inner: inner} }

func (b cachedBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	if opt.Cache == nil && opt.Journal == nil {
		return b.inner.RunCell(ctx, w, cfg, opt)
	}
	hash, err := CacheKey(w, cfg, opt).Hash()
	if err != nil {
		// An unhashable key cannot happen with plain-data inputs; if it
		// does, fall back to the uncached path rather than failing the run.
		return b.inner.RunCell(ctx, w, cfg, opt)
	}
	if payload, ok := opt.Cache.Get(hash); ok {
		if res, err := decodeRunResult(payload); err == nil {
			return res, true, nil
		}
	}
	if payload, ok := opt.Journal.Replayed(hash); ok {
		if res, err := decodeRunResult(payload); err == nil {
			// Promote into the cache so later lookups skip the journal map.
			_ = opt.Cache.Put(hash, payload)
			return res, true, nil
		}
	}
	res, cached, err := b.inner.RunCell(ctx, w, cfg, opt)
	if err != nil {
		return nil, false, err
	}
	if payload, err := encodeRunResult(res); err == nil {
		// Best effort: a full disk or read-only journal must not fail the
		// simulation that just succeeded. Recorded even when the inner
		// backend reports cached (a remote worker's warm cache): this
		// tier's cache and journal are what make the *next* lookup, and a
		// resumed study, local hits.
		_ = opt.Cache.Put(hash, payload)
		_ = opt.Journal.Append(hash, cellLabel(w, cfg, opt), payload)
	}
	return res, cached, nil
}

// flight is one in-progress cell computation; waiters block on done and
// then read res/err/abandoned, which the leader writes before closing
// the channel.
type flight struct {
	done chan struct{}
	res  *RunResult
	err  error
	// abandoned reports that the leader failed because its own ctx was
	// canceled: the error belongs to that caller, not to the cell.
	abandoned bool
}

// Dedupe wraps a Backend with in-flight deduplication (the singleflight
// pattern): concurrent RunCell calls whose cells hash to the same
// runcache identity share one computation. The first caller becomes the
// leader and executes against the inner backend; everyone else waits for
// the leader and is served the same *RunResult (treat it as read-only —
// results are immutable after computation everywhere in this tree).
//
// This is what makes a shared experiment server cheap under redundant
// load: two clients submitting the same sweep cost one simulation, and
// the run cache only ever stores the cell once. Cancellation stays with
// the caller that was canceled. A canceled waiter returns its own
// ctx.Err and leaves the leader running. A leader canceled mid-cell
// returns its ctx error, but its waiters do not inherit it: each waiter
// whose own ctx is still live joins or leads a fresh flight for the
// cell, so canceling one study job never ends an identical one.
type Dedupe struct {
	inner Backend

	mu       sync.Mutex
	inflight map[string]*flight
}

// NewDedupe returns a Dedupe executing unique cells on inner.
func NewDedupe(inner Backend) *Dedupe {
	return &Dedupe{inner: inner, inflight: map[string]*flight{}}
}

// RunCell implements Backend. Cells are identified by the same
// content-address the run cache uses, so "identical" means identical in
// every result-affecting input; an unhashable key (impossible with
// plain-data inputs) degrades to plain execution.
func (d *Dedupe) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	hash, err := CacheKey(w, cfg, opt).Hash()
	if err != nil {
		return d.inner.RunCell(ctx, w, cfg, opt)
	}
	for {
		d.mu.Lock()
		f, ok := d.inflight[hash]
		if !ok {
			break // lead a fresh flight, still holding d.mu
		}
		d.mu.Unlock()
		obsFlightShared.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if !f.abandoned {
			return f.res, true, f.err
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	f := &flight{done: make(chan struct{})}
	d.inflight[hash] = f
	d.mu.Unlock()

	obsFlightLeaders.Inc()
	res, cached, err := d.inner.RunCell(ctx, w, cfg, opt)
	f.res, f.err = res, err
	f.abandoned = err != nil && ctx.Err() != nil
	d.mu.Lock()
	delete(d.inflight, hash)
	d.mu.Unlock()
	close(f.done)
	return res, cached, err
}

// Gate wraps a Backend with a global concurrency limit: at most slots
// RunCell calls execute at once, everyone else queues. A server fronting
// many study jobs uses one Gate under one Dedupe, so admission control
// bounds total simulation concurrency regardless of how many requests
// are in flight, and duplicate waiters never hold a slot.
type Gate struct {
	inner Backend
	sem   chan struct{}
}

// NewGate returns a Gate running at most slots (minimum 1) concurrent
// cells on inner.
func NewGate(inner Backend, slots int) *Gate {
	if slots < 1 {
		slots = 1
	}
	return &Gate{inner: inner, sem: make(chan struct{}, slots)}
}

// RunCell implements Backend. Waiting for a slot honors ctx, so a
// canceled request leaves the queue immediately.
func (g *Gate) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-g.sem }()
	return g.inner.RunCell(ctx, w, cfg, opt)
}

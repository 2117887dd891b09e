// Package shard executes simulation cells on remote xeond workers
// through the core.Backend seam. Remote forwards one cell to one worker
// over api.Client; Shard partitions cells across N Remotes by the same
// content address the run cache uses (so a worker keeps seeing the cells
// it already has warm) and fails over to the next healthy worker when
// one drops. Backends never affect results — a sharded frontend serves
// artifacts byte-identical to a local run, which the shard-smoke CI job
// and the equivalence tests pin.
package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/obs"
	"xeonomp/internal/sched"
)

// Process-wide observability series for sharded execution; totals live
// here, the per-shard split is registered per Shard (see newWorker).
var (
	obsCellsSent = obs.NewCounter(obs.MetricShardCellsSent)
	obsRetries   = obs.NewCounter(obs.MetricShardRetries)
	obsFailovers = obs.NewCounter(obs.MetricShardFailovers)
)

// Busy-worker retry pacing: a 429's Retry-After hint is honored when
// present; otherwise the delay doubles from retryDelay up to retryCap,
// for at most retryMax rounds per cell.
const (
	retryDelay = 100 * time.Millisecond
	retryCap   = 5 * time.Second
	retryMax   = 8
)

// Remote is a core.Backend that executes every cell on one xeond worker
// via the synchronous cell endpoint. The worker simulates (or serves
// from its own cache); Remote rebuilds the full RunResult from the raw
// wire counters, re-deriving metrics locally so a remote cell can never
// disagree with what counters.Derive produces here.
//
// Errors keep the api package's typed identity: a rejected request
// matches api.ErrBadRequest, a dead worker matches api.ErrTransport (the
// signal Shard fails over on), and 429s are retried internally with
// bounded backoff. Options the wire cannot express — a custom machine,
// cycle limits, samplers, the reference engine, a non-default warmup —
// are rejected loudly rather than silently dropped.
type Remote struct {
	c *api.Client
}

// NewRemote returns a Remote executing cells on the worker behind c.
func NewRemote(c *api.Client) *Remote { return &Remote{c: c} }

// Name identifies the worker in errors and logs: its base URL.
func (r *Remote) Name() string { return r.c.Base() }

// cellRequest maps one cell onto the wire, or explains why it cannot be.
func cellRequest(w core.Workload, cfg config.Configuration, opt core.Options) (api.CellRequest, error) {
	var zero api.CellRequest
	def := core.DefaultOptions()
	switch {
	case opt.Machine != nil:
		return zero, errors.New("shard: custom machine configs are not expressible over the cell API")
	case opt.CycleLimit != 0:
		return zero, errors.New("shard: cycle limits are not expressible over the cell API")
	case opt.SampleInterval != 0:
		return zero, errors.New("shard: counter samplers are not expressible over the cell API")
	case opt.Reference:
		return zero, errors.New("shard: the reference engine is not expressible over the cell API")
	case opt.WarmupFrac != def.WarmupFrac:
		return zero, fmt.Errorf("shard: warmup fraction %g is not expressible over the cell API (workers use %g)", opt.WarmupFrac, def.WarmupFrac)
	}
	policy := opt.Policy.String()
	if _, err := sched.ParsePolicy(policy); err != nil {
		return zero, fmt.Errorf("shard: policy %v has no wire name", opt.Policy)
	}
	req := api.CellRequest{Config: cfg.Name, Scale: opt.Scale, Seed: opt.Seed, Policy: policy}
	for _, p := range w.Programs {
		req.Benchmarks = append(req.Benchmarks, p.Name)
	}
	return req, nil
}

// RunCell implements core.Backend.
func (r *Remote) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	req, err := cellRequest(w, cfg, opt)
	if err != nil {
		return nil, false, err
	}
	resp, err := r.runWithRetry(ctx, req)
	if err != nil {
		return nil, false, fmt.Errorf("shard: worker %s: %w", r.Name(), err)
	}
	res, err := rebuild(resp, cfg, w)
	if err != nil {
		return nil, false, fmt.Errorf("shard: worker %s: %w", r.Name(), err)
	}
	return res, resp.Cached, nil
}

// runWithRetry posts the cell, waiting out the worker's admission
// control: each 429 is retried after its Retry-After hint (or the
// exponential fallback), bounded by retryMax rounds.
func (r *Remote) runWithRetry(ctx context.Context, req api.CellRequest) (api.CellResponse, error) {
	delay := retryDelay
	for attempt := 0; ; attempt++ {
		resp, err := r.c.RunCell(ctx, req)
		if err == nil || !errors.Is(err, api.ErrOverBudget) {
			return resp, err
		}
		if attempt+1 >= retryMax {
			return api.CellResponse{}, fmt.Errorf("worker still over budget after %d attempts: %w", retryMax, err)
		}
		wait := delay
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		obsRetries.Inc()
		if serr := sleep(ctx, wait); serr != nil {
			return api.CellResponse{}, serr
		}
		if delay *= 2; delay > retryCap {
			delay = retryCap
		}
	}
}

// rebuild reconstructs the full RunResult from the wire response. The
// raw counters are required: without them the derived metrics would be
// zeros, which downstream reductions would silently aggregate.
func rebuild(resp api.CellResponse, cfg config.Configuration, w core.Workload) (*core.RunResult, error) {
	if len(resp.Programs) != len(w.Programs) {
		return nil, fmt.Errorf("cell response has %d programs, want %d", len(resp.Programs), len(w.Programs))
	}
	for i := range resp.Programs {
		p := &resp.Programs[i]
		if p.Benchmark != w.Programs[i].Name {
			return nil, fmt.Errorf("cell response program %d is %q, want %q", i, p.Benchmark, w.Programs[i].Name)
		}
		if len(p.Counters) == 0 {
			return nil, fmt.Errorf("cell response for %s carries no raw counters; the worker predates the counters field", p.Benchmark)
		}
	}
	progs, err := core.DecodePrograms(resp.Programs)
	if err != nil {
		return nil, err
	}
	return &core.RunResult{Config: cfg, WallCycles: resp.WallCycles, Programs: progs}, nil
}

// sleep waits d, honoring ctx cancellation.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

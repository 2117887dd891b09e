package core

import (
	"encoding/json"
	"fmt"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/machine"
	"xeonomp/internal/runcache"
)

// runSchemaVersion identifies the result encoding and the simulator's
// observable behaviour in every cache key. Bump it whenever either
// changes so stale cache and journal entries miss instead of resurfacing
// results the current code would not produce.
const runSchemaVersion = "xeonomp/run/v1"

// CacheKey returns the content-address identity of running workload w
// under cfg with opt — the runcache key core.Run uses. Exported so tools
// can inspect or prune cache entries for specific cells.
func CacheKey(w Workload, cfg config.Configuration, opt Options) runcache.Key {
	return runcache.Key{
		Schema:         runSchemaVersion,
		Machine:        opt.machineConfig(),
		Workload:       w.Programs,
		Config:         cfg,
		Policy:         opt.Policy,
		Seed:           opt.Seed,
		Scale:          opt.Scale,
		WarmupFrac:     opt.WarmupFrac,
		CycleLimit:     opt.CycleLimit,
		SampleInterval: opt.SampleInterval,
	}
}

// cellLabel renders the human-readable journal label for a cell.
func cellLabel(w Workload, cfg config.Configuration, opt Options) string {
	return fmt.Sprintf("%s|%s|seed=%d", w.Name(), cfg.Name, opt.Seed)
}

// runThroughCache serves a cell from the run cache or the replayed
// journal when possible, running compute and recording its result
// otherwise. It is the shared cache/journal tier of every backend that
// carries one: the local backend's compute is the cycle engine
// (runUncached), the Cached decorator's compute is its inner backend —
// which is how a sharding frontend keeps a resumable journal of cells
// that were simulated machines away. Decode failures — corrupt disk
// entries, schema drift — degrade to recomputation. The cached return
// reports whether the cell was served rather than computed; RunContext
// owns the progress and metric accounting built on it.
func runThroughCache(w Workload, cfg config.Configuration, opt Options, compute func() (*RunResult, bool, error)) (*RunResult, bool, error) {
	hash, err := CacheKey(w, cfg, opt).Hash()
	if err != nil {
		// An unhashable key cannot happen with plain-data inputs; if it
		// does, fall back to the uncached path rather than failing the run.
		return compute()
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
	res, cached, err := compute()
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

// cellProgram is the cache encoding of one ProgramResult. Metrics are
// not stored: they are re-derived from the counters on decode, so a
// cached result cannot disagree with what Derive produces today.
type cellProgram struct {
	Benchmark string            `json:"benchmark"`
	Threads   int               `json:"threads"`
	Cycles    int64             `json:"cycles"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
}

// cellSample is the cache encoding of one sampler window.
type cellSample struct {
	Start    int64             `json:"start"`
	End      int64             `json:"end"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// cellResult is the full-fidelity cache encoding of a RunResult.
type cellResult struct {
	Schema     string               `json:"schema"`
	Config     config.Configuration `json:"config"`
	WallCycles int64                `json:"wall_cycles"`
	Programs   []cellProgram        `json:"programs"`
	Samples    []cellSample         `json:"samples,omitempty"`
}

// encodeRunResult serializes r for the run cache and journal.
func encodeRunResult(r *RunResult) ([]byte, error) {
	out := cellResult{
		Schema:     runSchemaVersion,
		Config:     r.Config,
		WallCycles: r.WallCycles,
	}
	for i := range r.Programs {
		p := &r.Programs[i]
		out.Programs = append(out.Programs, cellProgram{
			Benchmark: p.Benchmark,
			Threads:   p.Threads,
			Cycles:    p.Cycles,
			Counters:  p.Counters.NonzeroMap(),
		})
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		out.Samples = append(out.Samples, cellSample{
			Start:    s.Start,
			End:      s.End,
			Counters: s.Counters.NonzeroMap(),
		})
	}
	return json.Marshal(out)
}

// ProgramFromCounters rebuilds one program's result from its raw counter
// map (the cache, journal and wire encoding), re-deriving the metrics so
// a decoded result can never disagree with what counters.Derive produces.
func ProgramFromCounters(benchmark string, threads int, cycles int64, raw map[string]uint64) (ProgramResult, error) {
	set, err := counters.SetFromMap(raw)
	if err != nil {
		return ProgramResult{}, err
	}
	return ProgramResult{
		Benchmark: benchmark,
		Threads:   threads,
		Cycles:    cycles,
		Counters:  set,
		Metrics:   counters.Derive(&set),
	}, nil
}

// decodeRunResult rebuilds a RunResult from a cache or journal payload.
// Any mismatch — schema drift, unknown events, malformed JSON — is an
// error; callers treat it as a miss and recompute.
func decodeRunResult(payload []byte) (*RunResult, error) {
	var in cellResult
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, fmt.Errorf("core: decoding cached result: %w", err)
	}
	if in.Schema != runSchemaVersion {
		return nil, fmt.Errorf("core: cached result schema %q, want %q", in.Schema, runSchemaVersion)
	}
	res := &RunResult{Config: in.Config, WallCycles: in.WallCycles}
	for _, p := range in.Programs {
		pr, err := ProgramFromCounters(p.Benchmark, p.Threads, p.Cycles, p.Counters)
		if err != nil {
			return nil, err
		}
		res.Programs = append(res.Programs, pr)
	}
	for _, s := range in.Samples {
		set, err := counters.SetFromMap(s.Counters)
		if err != nil {
			return nil, err
		}
		res.Samples = append(res.Samples, machine.Sample{Start: s.Start, End: s.End, Counters: set})
	}
	return res, nil
}

package core

import (
	"encoding/json"
	"fmt"

	"xeonomp/internal/api"
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
	Programs   []api.CellProgram    `json:"programs"`
	Samples    []cellSample         `json:"samples,omitempty"`
}

// EncodePrograms renders r's programs as the one per-program record the
// run cache, the journal, the cell endpoint and the -json export share:
// raw counters by event name, plus the derived metrics when withMetrics
// is set (the wire and the export; cache and journal payloads omit them,
// since DecodePrograms re-derives them anyway).
func EncodePrograms(r *RunResult, withMetrics bool) []api.CellProgram {
	out := make([]api.CellProgram, len(r.Programs))
	for i := range r.Programs {
		p := &r.Programs[i]
		out[i] = api.CellProgram{
			Benchmark: p.Benchmark,
			Threads:   p.Threads,
			Cycles:    p.Cycles,
			Counters:  p.Counters.NonzeroMap(),
		}
		if withMetrics {
			out[i].Metrics = &p.Metrics
		}
	}
	return out
}

// DecodePrograms rebuilds program results from their records,
// re-deriving the metrics from the raw counters so a decoded result can
// never disagree with what counters.Derive produces; any Metrics in the
// records are ignored. An unknown counter event is an error: the record
// was written by different code.
func DecodePrograms(in []api.CellProgram) ([]ProgramResult, error) {
	out := make([]ProgramResult, len(in))
	for i := range in {
		set, err := counters.SetFromMap(in[i].Counters)
		if err != nil {
			return nil, err
		}
		out[i] = ProgramResult{
			Benchmark: in[i].Benchmark,
			Threads:   in[i].Threads,
			Cycles:    in[i].Cycles,
			Counters:  set,
			Metrics:   counters.Derive(&set),
		}
	}
	return out, nil
}

// encodeRunResult serializes r for the run cache and journal.
func encodeRunResult(r *RunResult) ([]byte, error) {
	out := cellResult{
		Schema:     runSchemaVersion,
		Config:     r.Config,
		WallCycles: r.WallCycles,
		Programs:   EncodePrograms(r, false),
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
	progs, err := DecodePrograms(in.Programs)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Config: in.Config, WallCycles: in.WallCycles, Programs: progs}
	for _, s := range in.Samples {
		set, err := counters.SetFromMap(s.Counters)
		if err != nil {
			return nil, err
		}
		res.Samples = append(res.Samples, machine.Sample{Start: s.Start, End: s.End, Counters: set})
	}
	return res, nil
}

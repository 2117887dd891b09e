package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/journal"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
)

// TestColdWarmResumedStudiesIdentical is the acceptance pin for the run
// cache: a cold run, a warm run served entirely from the persistent
// cache, and a run resumed from a journal must produce identical Results
// maps — byte-identical counters, cycles, and derived metrics.
func TestColdWarmResumedStudiesIdentical(t *testing.T) {
	dir := t.TempDir()

	cold, err := runSingleStudy(quickOptions())
	if err != nil {
		t.Fatal(err)
	}

	// First cached run populates the disk tier; it must already agree
	// with the cold run (cache writes cannot perturb results).
	populate := quickOptions()
	cache1, err := runcache.New(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	populate.Cache = cache1
	first, err := runSingleStudy(populate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, first.Results) {
		t.Fatal("cache-populating run differs from cold run")
	}
	if s := cache1.Stats(); s.Misses == 0 || s.Hits() != 0 {
		t.Fatalf("populating run stats = %+v, want all misses", s)
	}

	// Warm run: a fresh process (fresh memory tier) over the same
	// directory must serve every cell from disk.
	warmOpt := quickOptions()
	cache2, err := runcache.New(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	warmOpt.Cache = cache2
	warm, err := runSingleStudy(warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatal("warm (disk-cached) run differs from cold run")
	}
	if s := cache2.Stats(); s.Misses != 0 || s.DiskHits == 0 {
		t.Fatalf("warm run stats = %+v, want zero misses", s)
	}

	// Resumed run: record every cell to a journal, then replay it into a
	// new invocation with no cache directory at all.
	jpath := filepath.Join(dir, "run.jsonl")
	recOpt := quickOptions()
	rec, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recOpt.Journal = rec
	if _, err := runSingleStudy(recOpt); err != nil {
		t.Fatal(err)
	}
	rec.Close()

	resOpt := quickOptions()
	replay, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if replay.Len() == 0 {
		t.Fatal("journal recorded no cells")
	}
	resOpt.Journal = replay
	resOpt.Cache, err = runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := runSingleStudy(resOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, resumed.Results) {
		t.Fatal("resumed (journal-replayed) run differs from cold run")
	}
	if !reflect.DeepEqual(cold.Baselines, resumed.Baselines) {
		t.Fatal("resumed baselines differ from cold run")
	}
}

// TestCacheSharedAcrossStudies pins the motivating reuse: the pair study
// computes CG/FT, FT/FT and CG/CG cells that the cross-product study can
// then serve from cache.
func TestCacheSharedAcrossStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("cross study at scale")
	}
	opt := quickOptions()
	var err error
	opt.Cache, err = runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPairStudy(opt); err != nil {
		t.Fatal(err)
	}
	afterPair := opt.Cache.Stats()
	if _, err := runCrossStudy(opt); err != nil {
		t.Fatal(err)
	}
	s := opt.Cache.Stats()
	if s.MemHits <= afterPair.MemHits {
		t.Fatalf("cross study reused no pair-study cells: %+v after %+v", s, afterPair)
	}
}

// TestRunResultCodecRoundTrip pins full-fidelity serialization,
// including the sampler time series.
func TestRunResultCodecRoundTrip(t *testing.T) {
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	cmt, err := config.ByArch(config.CMT)
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOptions()
	opt.SampleInterval = 200_000
	res, err := RunSingle(cg, cmt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples to round-trip")
	}
	payload, err := encodeRunResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRunResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("codec round trip changed the result")
	}
}

// recordFixture is a fixed synthetic cell — two programs, one sampler
// window, no simulation — whose encoded record bytes the tests pin.
func recordFixture(t *testing.T) *RunResult {
	t.Helper()
	cfg, err := config.ByArch(config.SMP)
	if err != nil {
		t.Fatal(err)
	}
	var cg, ft, window counters.Set
	cg.Add(counters.Cycles, 1000)
	cg.Add(counters.Instructions, 800)
	cg.Add(counters.L1DAccess, 300)
	cg.Add(counters.L1DMiss, 12)
	ft.Add(counters.Cycles, 900)
	ft.Add(counters.Instructions, 450)
	ft.Add(counters.BranchRetired, 90)
	ft.Add(counters.BranchMispredicted, 3)
	window.Merge(&cg)
	window.Merge(&ft)
	return &RunResult{
		Config:     cfg,
		WallCycles: 1000,
		Programs: []ProgramResult{
			{Benchmark: "CG", Threads: 1, Cycles: 1000, Counters: cg, Metrics: counters.Derive(&cg)},
			{Benchmark: "FT", Threads: 1, Cycles: 900, Counters: ft, Metrics: counters.Derive(&ft)},
		},
		Samples: []machine.Sample{{Start: 0, End: 1000, Counters: window}},
	}
}

// TestRecordBytesPinned pins the cache/journal payload of a fixed cell
// byte for byte. Changing these bytes orphans every on-disk cache and
// journal entry, so a change that breaks this test must bump
// runSchemaVersion alongside. The payload carries raw counters only; the
// -json export of the same cell carries the derived metrics too.
func TestRecordBytesPinned(t *testing.T) {
	res := recordFixture(t)
	payload, err := encodeRunResult(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"xeonomp/run/v1","config":{"Name":"HT off -2-2","Arch":"SMP","HT":false,"Threads":2,"Chips":2,"Contexts":[{"Chip":0,"Core":0,"Thread":0},{"Chip":1,"Core":0,"Thread":0}],"Labels":["B0","B2"]},"wall_cycles":1000,"programs":[{"benchmark":"CG","threads":1,"cycles":1000,"counters":{"cycles":1000,"instructions":800,"l1d_access":300,"l1d_miss":12}},{"benchmark":"FT","threads":1,"cycles":900,"counters":{"branch_mispredicted":3,"branch_retired":90,"cycles":900,"instructions":450}}],"samples":[{"start":0,"end":1000,"counters":{"branch_mispredicted":3,"branch_retired":90,"cycles":1900,"instructions":1250,"l1d_access":300,"l1d_miss":12}}]}`
	if string(payload) != want {
		t.Errorf("cache payload changed without a schema bump:\n got %s\nwant %s", payload, want)
	}
	if bytes.Contains(payload, []byte(`"metrics"`)) {
		t.Error("cache payload stores derived metrics; they must be re-derived on decode")
	}
	back, err := decodeRunResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Error("pinned payload does not decode back to the cell")
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var export struct {
		Programs []struct {
			Benchmark string            `json:"benchmark"`
			Metrics   *counters.Metrics `json:"metrics"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &export); err != nil {
		t.Fatal(err)
	}
	if len(export.Programs) != len(res.Programs) {
		t.Fatalf("export has %d programs, want %d", len(export.Programs), len(res.Programs))
	}
	for i, p := range export.Programs {
		if p.Metrics == nil || *p.Metrics != res.Programs[i].Metrics {
			t.Errorf("export of %s carries metrics %v, want %v", p.Benchmark, p.Metrics, res.Programs[i].Metrics)
		}
	}
}

// TestCorruptCacheEntryRecomputed pins that a damaged disk entry is
// recomputed, never trusted.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOptions()
	opt.Cache, err = runcache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunSingle(cg, serial, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Damage every stored entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("nothing cached on disk")
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := quickOptions()
	fresh.Cache, err = runcache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSingle(cg, serial, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("recomputed result differs after cache corruption")
	}
	if s := fresh.Cache.Stats(); s.DiskErrors == 0 {
		t.Fatalf("stats = %+v, want disk errors counted", s)
	}
}

// TestForEachJobAggregatesErrors pins that concurrent worker failures
// are all reported, not just the first.
func TestForEachJobAggregatesErrors(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	err := forEachJob(context.Background(), 2, 2, func(_ context.Context, i int) error {
		// Both workers enter before either fails, so neither can be
		// suppressed by the other's failure flag.
		gate.Done()
		gate.Wait()
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for _, want := range []string{"job 0 failed", "job 1 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q missing %q", err, want)
		}
	}
}

// TestForEachJobFailureDoesNotDeadlock pins the drain contract: an early
// failure with far more jobs than workers must not strand the producer.
// Before the errors.Join rework, a failed worker stopped reading the job
// channel and this test hung.
func TestForEachJobFailureDoesNotDeadlock(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	var mu sync.Mutex
	err := forEachJob(context.Background(), 10_000, 4, func(_ context.Context, i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran == 10_000 {
		t.Fatal("failure did not short-circuit remaining jobs")
	}
}

func TestForEachJobSequentialStopsAtFirstError(t *testing.T) {
	calls := 0
	err := forEachJob(context.Background(), 10, 1, func(_ context.Context, i int) error {
		calls++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}

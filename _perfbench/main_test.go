package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"xeonomp/internal/api"
)

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// printedNames returns the metric names printResult writes, from both
// the human-readable lines and the JSON line, with their units.
func printedNames(t *testing.T, res *result) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	printResult(&buf, "w", res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	names := map[string]string{}
	for n, m := range last.Metrics {
		names[n] = m.Unit
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if _, ok := names[f[1]]; !ok {
			t.Errorf("human-readable line names %q, missing from the JSON line", f[1])
		}
	}
	return names
}

// sameNames reports names printed but not declared, and declared but
// not printed, with unit mismatches.
func sameNames(t *testing.T, kind string, printed, declared map[string]string) {
	t.Helper()
	var extra, missing []string
	for n, u := range printed {
		d, ok := declared[n]
		if !ok {
			extra = append(extra, n)
		} else if d != u {
			t.Errorf("%s metric %s printed in %q, declared in %q", kind, n, u, d)
		}
	}
	for n := range declared {
		if _, ok := printed[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra) > 0 {
		t.Errorf("%s metrics printed but not in BENCHMARK.json: %v", kind, extra)
	}
	if len(missing) > 0 {
		t.Errorf("%s metrics in BENCHMARK.json but never printed: %v", kind, missing)
	}
}

// fakeEnv supplies the per-layer computation with an empty harness.
type fakeEnv struct{}

func (fakeEnv) measure(context.Context, time.Duration, *probe) error { return nil }
func (fakeEnv) verify(context.Context) (int, error)                  { return 0, nil }
func (fakeEnv) harness() harnessInput                                { return harnessInput{} }
func (fakeEnv) close() error                                         { return nil }

func TestPrintedMetricsAreDeclared(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	p := newProbe(false)
	p.elapsed = time.Second
	p.cells, p.attempted, p.lat = 2, 2, []int64{1e6, 2e6}
	p.cut()
	for _, w := range workloadNames() {
		sameNames(t, w+" end-to-end", printedNames(t, &result{Metrics: endToEnd(w, p, []float64{1})}), e2e)
	}
	tp := newProbe(true)
	tp.elapsed, tp.cells = time.Second, 2
	prof := &cpuProfile{self: map[string]float64{}, engine: map[string]float64{}}
	m := perLayer(p, tp, prof, fakeEnv{})
	m["failed_frac"] = metric{Unit: "1"} // added by run
	sameNames(t, "per-layer", printedNames(t, &result{Metrics: m}), layers)
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	// A daemon refusing every cell the way admission control does.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "busy", Code: api.CodeOverBudget})
	}))
	defer ts.Close()
	cells, names := warmSet(1)
	sw := &serveWarm{seed: 1, client: api.NewClient(ts.URL), cells: cells, names: names, want: make([]api.CellResponse, len(cells))}
	p := newProbe(false)
	if err := sw.caller(context.Background(), p, rand.New(rand.NewSource(1)), time.Now().Add(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted || p.wrong != 0 || p.cells != 0 || len(p.lat) != 0 {
		t.Fatalf("refused cells: attempted %d failed %d wrong %d completed %d latencies %d; want every attempt failed, none wrong",
			p.attempted, p.failed, p.wrong, p.cells, len(p.lat))
	}
}

func TestWrongReplyCountsAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(api.CellResponse{WallCycles: 1})
	}))
	defer ts.Close()
	cells, names := warmSet(1)
	want := make([]api.CellResponse, len(cells))
	for i := range want {
		want[i].WallCycles = 2
	}
	sw := &serveWarm{seed: 1, client: api.NewClient(ts.URL), cells: cells, names: names, want: want}
	p := newProbe(false)
	if err := sw.caller(context.Background(), p, rand.New(rand.NewSource(1)), time.Now().Add(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted || p.wrong != p.failed {
		t.Fatalf("wrong replies: attempted %d failed %d wrong %d; want every attempt failed and wrong", p.attempted, p.failed, p.wrong)
	}
}

func TestLatencyPercentilesReportSampleCount(t *testing.T) {
	p := newProbe(false)
	p.elapsed = time.Second
	for i := 1; i <= 40; i++ {
		p.lat = append(p.lat, int64(i)*1e6)
	}
	p.cells = len(p.lat)
	p.cut()
	m := endToEnd("serve-warm", p, []float64{1})
	for name, want := range map[string]float64{"latency_p50_ms": 20, "latency_p95_ms": 38} {
		if m[name].Value != want || m[name].samples != 40 {
			t.Errorf("%s = %v over %d samples, want %v over 40", name, m[name].Value, m[name].samples, want)
		}
	}
	var buf bytes.Buffer
	printResult(&buf, "serve-warm", &result{Metrics: m})
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "latency_p") && !strings.HasPrefix(l, "{") && !strings.HasSuffix(l, "(n=40)") {
			t.Errorf("percentile line without its sample count: %q", l)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"xeonomp/internal/cache.(*Cache).Lookup", "xeonomp/internal/cpu.(*Core).step"}, "cache"},
		{[]string{"runtime.mallocgc", "xeonomp/internal/cpu.(*Core).step"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "xeonomp/internal/journal.(*Journal).Append"}, "journal"},
		{[]string{"encoding/json.(*encodeState).marshal", "xeonomp/internal/server.writeJSON"}, "api.json"},
		{[]string{"encoding/json.(*encodeState).marshal", "xeonomp/internal/runcache.Key.Hash"}, "runcache"},
		{[]string{"crypto/sha256.block", "xeonomp/internal/prefetch.(*Prefetcher).OnMiss"}, "bus"},
		{[]string{"net/http.(*conn).serve"}, "http"},
		{[]string{"sort.Slice", "main.percentile"}, ""},
		{[]string{"xeonomp/internal/counters.(*Set).Merge"}, ""},
		{[]string{"sync/atomic.(*Pointer[go.shape.struct { xeonomp/internal/x.y }]).Load", "xeonomp/internal/shard.(*Shard).RunCell"}, "shard"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	prof, err := profiled(func() error {
		deadline := time.Now().Add(300 * time.Millisecond)
		x := 0
		for time.Now().Before(deadline) {
			x++
		}
		_ = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.total <= 0 {
		t.Fatalf("a 300 ms spin sampled %v s of CPU", prof.total)
	}
}

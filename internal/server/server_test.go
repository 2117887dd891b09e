package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/journal"
	"xeonomp/internal/runcache"
	"xeonomp/internal/sched"
)

// testScale keeps HTTP-level study runs fast; the byte-identity test
// recomputes its local reference at the same scale, so any value works.
const testScale = 0.02

// newTestServer boots a Server behind httptest and returns the typed
// client for it; both are torn down with the test. Every byte of wire
// traffic in this file goes through api.Client — the server tests are
// also the client's integration tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s, api.NewClient(ts.URL)
}

// followProgress consumes the progress stream until the terminal event
// and returns every event received, in order.
func followProgress(t *testing.T, c *api.Client, id string) []api.Event {
	t.Helper()
	var events []api.Event
	if _, err := c.Follow(context.Background(), id, func(e api.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatalf("progress stream broke before a terminal event: %v", err)
	}
	return events
}

// metricCounter scrapes one counter from the daemon's metrics snapshot.
func metricCounter(t *testing.T, c *api.Client, name string) float64 {
	t.Helper()
	b, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var m struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("decoding metrics snapshot: %v", err)
	}
	return m.Counters[name]
}

func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	b, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var m struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("decoding metrics snapshot: %v", err)
	}
	if _, ok := m.Counters["server.http_requests"]; !ok {
		t.Error("metrics snapshot is missing server.http_requests")
	}
}

func TestCellEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	resp, err := c.RunCell(ctx, api.CellRequest{Benchmarks: []string{"CG"}, Config: "Serial", Scale: testScale})
	if err != nil {
		t.Fatalf("cell: %v", err)
	}
	if len(resp.Programs) != 1 || resp.Programs[0].Benchmark != "CG" || resp.WallCycles <= 0 {
		t.Fatalf("cell response malformed: %+v", resp)
	}
	if len(resp.Programs[0].Counters) == 0 {
		t.Fatal("cell response carries no raw counters; remote backends cannot rebuild results without them")
	}
	// Unlike cache and journal payloads, the wire record carries the
	// derived metrics next to the counters they derive from.
	progs, err := core.DecodePrograms(resp.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if m := resp.Programs[0].Metrics; m == nil || *m != progs[0].Metrics {
		t.Errorf("cell response metrics %v, want %v", m, progs[0].Metrics)
	}

	// The same cell again: no cache is configured, so it recomputes and
	// still reports cached=false; with a cache it must flip to true.
	_, cCached := newTestServer(t, Config{Cache: newMemCache(t)})
	req := api.CellRequest{Benchmarks: []string{"CG"}, Config: "Serial", Scale: testScale}
	first, err := cCached.RunCell(ctx, req)
	if err != nil {
		t.Fatalf("first cell: %v", err)
	}
	second, err := cCached.RunCell(ctx, req)
	if err != nil {
		t.Fatalf("second cell: %v", err)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cache flags: first=%v second=%v, want false/true", first.Cached, second.Cached)
	}
	if first.WallCycles != second.WallCycles {
		t.Errorf("cached cell changed results: %d vs %d", first.WallCycles, second.WallCycles)
	}
}

func TestCellEndpointRejectsBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []api.CellRequest{
		{Benchmarks: []string{"CG"}, Config: "no-such-config"},
		{Benchmarks: []string{"no-such-benchmark"}, Config: "Serial"},
		{Benchmarks: nil, Config: "Serial"},
		{Benchmarks: []string{"CG", "FT", "BT"}, Config: "Serial"},
		{Benchmarks: []string{"CG"}, Config: "Serial", Scale: 2.5}, // over MaxScale
	}
	for _, req := range cases {
		_, err := c.RunCell(context.Background(), req)
		if !errors.Is(err, api.ErrBadRequest) {
			t.Errorf("%+v: error %v, want api.ErrBadRequest", req, err)
			continue
		}
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest || apiErr.Message == "" {
			t.Errorf("%+v: error %v lacks the structured code/message", req, err)
		}
	}

	// A body over maxRequestBytes is cut off while decoding, before any
	// field is validated.
	_, err := c.RunCell(context.Background(), api.CellRequest{Benchmarks: []string{"CG"}, Config: strings.Repeat("x", maxRequestBytes)})
	assertBodyTooLarge(t, err)
}

// assertBodyTooLarge checks that err is the structured 400 a request body
// over maxRequestBytes answers.
func assertBodyTooLarge(t *testing.T, err error) {
	t.Helper()
	var apiErr *api.Error
	if !errors.Is(err, api.ErrBadRequest) || !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest ||
		!strings.Contains(apiErr.Message, "request body too large") {
		msg := fmt.Sprint(err)
		if len(msg) > 200 {
			msg = msg[:200] + "…" // the echoed oversize field is 1 MiB long
		}
		t.Errorf("oversize body: error %s, want a bad_request naming the body limit", msg)
	}
}

func newMemCache(t *testing.T) *runcache.Cache {
	t.Helper()
	c, err := runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStudyOverHTTPByteIdentity is the remote-equivalence contract: the
// artifact bytes served by the HTTP API are byte-for-byte the canonical
// golden JSON a local run of the same study produces. Seq density is
// enforced by the client's stream iterator as a side effect of Follow.
func TestStudyOverHTTPByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full study over HTTP")
	}
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	st, err := c.SubmitStudy(ctx, api.StudyRequest{Study: "single", Scale: testScale})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	events := followProgress(t, c, st.ID)
	last := events[len(events)-1]
	if last.State != api.StateDone {
		t.Fatalf("study finished %s: %s", last.State, last.Error)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d; the stream must replay the full ordered history", i, e.Seq)
		}
	}
	if st, err = c.Study(ctx, st.ID); err != nil {
		t.Fatalf("status: %v", err)
	}
	wantCells, err := core.StudyCells("single")
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneCells != wantCells || len(events) != wantCells+1 {
		t.Errorf("done %d cells, %d events; want %d cells", st.DoneCells, len(events), wantCells)
	}

	// The local reference: same study, same knobs, no server.
	study, err := core.NewStudy("single")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.NewOptions(core.WithScale(testScale), core.WithSeed(1), core.WithPolicy(sched.Alternate))
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	arts, err := study.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(st.Artifacts) {
		t.Fatalf("server lists %d artifacts, local run has %d", len(st.Artifacts), len(arts))
	}
	for _, a := range arts {
		want, err := a.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Artifact(ctx, st.ID, a.Name)
		if err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("artifact %s served over HTTP differs from the local canonical bytes", a.Name)
		}
	}
}

// holdBackend delegates to core.Local but parks executions until release
// is closed, so tests can hold cells in flight deterministically.
type holdBackend struct {
	entered atomic.Int64
	// free cells pass straight through before parking starts.
	free    int64
	release chan struct{}
}

func (b *holdBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	if b.entered.Add(1) > b.free {
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	return core.Local().RunCell(ctx, w, cfg, opt)
}

// TestConcurrentIdenticalCellsDedupe pins the singleflight behaviour end
// to end: two clients POST the identical cell at the same time, exactly
// one simulation happens, and the obs counters expose the shared flight.
func TestConcurrentIdenticalCellsDedupe(t *testing.T) {
	hold := &holdBackend{release: make(chan struct{})}
	_, c := newTestServer(t, Config{Backend: hold, Workers: 4})
	ctx := context.Background()

	sharedBefore := metricCounter(t, c, "core.flight_shared")
	leadersBefore := metricCounter(t, c, "core.flight_leaders")

	req := api.CellRequest{Benchmarks: []string{"CG"}, Config: "Serial", Scale: testScale}
	var wg sync.WaitGroup
	responses := make([]api.CellResponse, 2)
	errs := make([]error, 2)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = c.RunCell(ctx, req)
		}(i)
	}
	// The leader is parked inside the backend; release once the second
	// request has joined the flight (visible as a shared-flight count).
	deadline := time.Now().Add(10 * time.Second)
	for metricCounter(t, c, "core.flight_shared")-sharedBefore < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(hold.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := hold.entered.Load(); got != 1 {
		t.Errorf("backend executed %d cells for 2 identical concurrent requests, want 1", got)
	}
	if responses[0].Cached == responses[1].Cached {
		t.Errorf("cache flags %v/%v: exactly one request computes, the other shares", responses[0].Cached, responses[1].Cached)
	}
	if responses[0].WallCycles != responses[1].WallCycles {
		t.Error("shared flight served different results")
	}
	if d := metricCounter(t, c, "core.flight_leaders") - leadersBefore; d != 1 {
		t.Errorf("flight_leaders moved by %g, want 1", d)
	}
	if d := metricCounter(t, c, "core.flight_shared") - sharedBefore; d != 1 {
		t.Errorf("flight_shared moved by %g, want 1", d)
	}
}

// TestStudyCancellationLeavesReplayableJournal cancels a study mid-run
// and pins the crash-safety contract: the journal holds every completed
// cell (no torn tail), and resubmitting the same request resumes from it
// instead of recomputing.
func TestStudyCancellationLeavesReplayableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("full study over HTTP")
	}
	dir := t.TempDir()
	hold := &holdBackend{free: 3, release: make(chan struct{})}
	s, c := newTestServer(t, Config{Backend: hold, JournalDir: dir, Workers: 2})
	ctx := context.Background()

	req := api.StudyRequest{Study: "single", Scale: testScale}
	st, err := c.SubmitStudy(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait until some cells completed and the rest are parked.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c.Study(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.DoneCells >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("study never completed its free cells")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The cancel response body is the (possibly still running) status;
	// the progress stream below observes the terminal state.
	if _, err := c.CancelStudy(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	events := followProgress(t, c, st.ID)
	last := events[len(events)-1]
	if last.State != api.StateCanceled {
		t.Fatalf("terminal state %q, want %q (error: %s)", last.State, api.StateCanceled, last.Error)
	}
	cur, err := c.Study(ctx, st.ID)
	if err != nil || cur.State != api.StateCanceled {
		t.Fatalf("status after cancel: %v %+v", err, cur)
	}
	// Artifacts must not exist for a canceled job — a typed conflict.
	if _, err := c.Artifact(ctx, st.ID, "figure2"); !errors.Is(err, api.ErrConflict) {
		t.Errorf("artifact of canceled job: error %v, want api.ErrConflict", err)
	}

	// Release the server's journal handle, then inspect the tail.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(filepath.Join(dir, hash+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	replayed := jn.Len()
	skipped := jn.Skipped()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if replayed < 2 {
		t.Fatalf("journal replays %d cells after cancellation, want >= 2", replayed)
	}
	if skipped != 0 {
		t.Fatalf("journal tail is torn: %d undecodable lines", skipped)
	}

	// Resume: a fresh server over the same journal dir serves the
	// completed tail without recomputing it.
	resumeHold := &holdBackend{free: 1 << 30, release: make(chan struct{})}
	_, c2 := newTestServer(t, Config{Backend: resumeHold, JournalDir: dir, Workers: 2})
	st2, err := c2.SubmitStudy(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	events2 := followProgress(t, c2, st2.ID)
	if last := events2[len(events2)-1]; last.State != api.StateDone {
		t.Fatalf("resumed study finished %s: %s", last.State, last.Error)
	}
	if st2, err = c2.Study(ctx, st2.ID); err != nil {
		t.Fatalf("resumed status: %v", err)
	}
	if st2.CachedCells < replayed {
		t.Errorf("resumed study served %d cells from cache/journal, want >= %d (the journal tail)", st2.CachedCells, replayed)
	}
}

func TestStudyAdmissionControl(t *testing.T) {
	ctx := context.Background()
	// A cell budget below the study size rejects with a typed over-budget
	// error carrying the Retry-After hint, before any work.
	_, cBudget := newTestServer(t, Config{MaxCellsPerRequest: 1})
	_, err := cBudget.SubmitStudy(ctx, api.StudyRequest{Study: "single", Scale: testScale})
	if !errors.Is(err, api.ErrOverBudget) {
		t.Errorf("over-budget study: error %v, want api.ErrOverBudget", err)
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeOverBudget || apiErr.Message == "" {
		t.Errorf("over-budget study: error %v lacks the structured code/message", err)
	} else if apiErr.RetryAfter <= 0 {
		t.Errorf("over-budget study: no Retry-After hint on %v", err)
	}
	rejected := metricCounter(t, cBudget, "server.rejected")
	if rejected < 1 {
		t.Errorf("server.rejected is %g after a 429", rejected)
	}

	// Unknown study names, policies, and oversized scales reject as bad
	// requests.
	for _, req := range []api.StudyRequest{
		{Study: "no-such-study"},
		{Study: "single", Policy: "no-such-policy"},
		{Study: "single", Scale: 2.5},
	} {
		if _, err := cBudget.SubmitStudy(ctx, req); !errors.Is(err, api.ErrBadRequest) {
			t.Errorf("%+v: error %v, want api.ErrBadRequest", req, err)
		}
	}
	_, err = cBudget.SubmitStudy(ctx, api.StudyRequest{Study: strings.Repeat("s", maxRequestBytes)})
	assertBodyTooLarge(t, err)

	// A saturated server rejects the next study with over-budget.
	hold := &holdBackend{release: make(chan struct{})}
	defer close(hold.release)
	_, cSat := newTestServer(t, Config{Backend: hold, MaxConcurrentStudies: 1, Workers: 1})
	if _, err := cSat.SubmitStudy(ctx, api.StudyRequest{Study: "single", Scale: testScale}); err != nil {
		t.Fatalf("first study: %v", err)
	}
	if _, err := cSat.SubmitStudy(ctx, api.StudyRequest{Study: "pair", Scale: testScale}); !errors.Is(err, api.ErrOverBudget) {
		t.Errorf("second study on a saturated server: error %v, want api.ErrOverBudget", err)
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.Study(ctx, "job-999"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("status of unknown job: error %v, want api.ErrNotFound", err)
	}
	if _, err := c.Artifact(ctx, "job-999", "figure2"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("artifact of unknown job: error %v, want api.ErrNotFound", err)
	}
	if _, err := c.Progress(ctx, "job-999", 0); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("progress of unknown job: error %v, want api.ErrNotFound", err)
	}
}

func TestStudyList(t *testing.T) {
	hold := &holdBackend{release: make(chan struct{})}
	defer close(hold.release)
	_, c := newTestServer(t, Config{Backend: hold, Workers: 1, MaxConcurrentStudies: 2})
	ctx := context.Background()
	first, err := c.SubmitStudy(ctx, api.StudyRequest{Study: "single", Scale: testScale})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	second, err := c.SubmitStudy(ctx, api.StudyRequest{Study: "pair", Scale: testScale})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	list, err := c.Studies(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != 2 || list[0].ID != first.ID || list[1].ID != second.ID {
		t.Fatalf("list %+v, want [%s %s] in submission order", list, first.ID, second.ID)
	}
}

func TestStudyCellsMatchesStudyNames(t *testing.T) {
	for _, name := range core.StudyNames() {
		n, err := core.StudyCells(name)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Errorf("study %s reports %d cells", name, n)
		}
		if _, err := core.NewStudy(name); err != nil {
			t.Errorf("NewStudy(%s): %v", name, err)
		}
	}
	if _, err := core.NewStudy("bogus"); err == nil {
		t.Error("NewStudy accepted an unknown name")
	}
	if _, err := core.StudyCells("bogus"); err == nil {
		t.Error("StudyCells accepted an unknown name")
	}
}

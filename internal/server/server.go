// Package server is the simulation-as-a-service layer: a stdlib-only
// HTTP+JSON front end over the experiment engine. It accepts study and
// cell requests, dedupes identical in-flight cells (core.Dedupe), bounds
// total simulation concurrency (core.Gate), serves repeated work out of
// the shared run cache, and streams per-cell progress events. Results
// served remotely are byte-identical to local runs — the golden
// artifacts and determinism pins are the contract, and the byte-identity
// test plus the server-smoke CI job enforce it.
//
// The wire schema the handlers speak — request/response bodies, error
// codes, the progress-event format — lives in internal/api, shared with
// cmd/xeonctl's client and the internal/shard remote backend; this
// package holds only the handlers and job machinery. cmd/xeond is the
// thin daemon main around it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/journal"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/sched"
)

// Process-wide observability series (see internal/obs): HTTP traffic and
// latency, study-job lifecycle, and admission-control rejections. The
// /metrics endpoint serves these (and every other registered series)
// back out, so a repeated study shows up as core.cells_cached moving
// while core.cells_computed stands still.
var (
	obsRequests        = obs.NewCounter(obs.MetricServerRequests)
	obsRequestNs       = obs.NewHistogram(obs.MetricServerRequestNs)
	obsStudiesAccepted = obs.NewCounter(obs.MetricServerStudiesAccepted)
	obsStudiesDone     = obs.NewCounter(obs.MetricServerStudiesDone)
	obsStudiesFailed   = obs.NewCounter(obs.MetricServerStudiesFailed)
	obsStudiesCanceled = obs.NewCounter(obs.MetricServerStudiesCanceled)
	obsRejected        = obs.NewCounter(obs.MetricServerRejected)
	obsActiveStudies   = obs.NewGauge(obs.MetricServerActiveStudies)
)

// Config sizes a Server. The zero value is usable: in-process execution,
// no cache persistence, no journals, and the documented default budgets.
type Config struct {
	// Backend executes unique cells; nil selects core.Local(). The
	// server always layers its shared Dedupe and Gate on top, so tests
	// and future remote shards plug in here without changing admission
	// or dedupe behaviour.
	Backend core.Backend
	// Cache, when non-nil, memoizes cells across all requests — the tier
	// that makes a repeated study near-free. Pass one built with a disk
	// directory to survive restarts.
	Cache *runcache.Cache
	// JournalDir, when non-empty, gives every distinct study request an
	// append-only journal named by the request's content hash, so a
	// canceled or crashed study resumes when the same request returns.
	JournalDir string
	// Workers bounds simulation concurrency: each study job runs its
	// cells on this many workers, and the shared Gate admits at most
	// this many concurrent cells server-wide. 0 selects GOMAXPROCS.
	Workers int
	// MaxCellsPerRequest is the admission budget: a study expanding to
	// more cells is rejected with 429 before any simulation starts.
	// 0 selects 256.
	MaxCellsPerRequest int
	// MaxConcurrentStudies bounds running study jobs; excess submissions
	// get 429. 0 selects 4.
	MaxConcurrentStudies int
	// MaxScale caps the per-request Scale knob. 0 selects 1.0, the full
	// paper workload.
	MaxScale float64
}

// withDefaults fills the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxCellsPerRequest == 0 {
		c.MaxCellsPerRequest = 256
	}
	if c.MaxConcurrentStudies == 0 {
		c.MaxConcurrentStudies = 4
	}
	if c.MaxScale == 0 {
		c.MaxScale = 1.0
	}
	return c
}

// Server is the experiment daemon: shared backend stack, shared run
// cache, job table, and per-study journals. Create one with New, mount
// Handler on an http.Server, and Close it on the way out.
type Server struct {
	cfg     Config
	backend core.Backend // Dedupe(Gate(cfg.Backend))
	ctx     context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	jobSeq   int
	active   int
	journals map[string]*journal.Journal
}

// New builds a Server from cfg (see Config for the zero-value
// defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	inner := cfg.Backend
	if inner == nil {
		inner = core.Local()
	}
	//xeonlint:ignore ctxflow the server owns its own lifetime: this root is canceled by Close, not by any caller's ctx
	ctx, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		backend:  core.NewDedupe(core.NewGate(inner, cfg.Workers)),
		ctx:      ctx,
		stop:     stop,
		jobs:     map[string]*job{},
		journals: map[string]*journal.Journal{},
	}
}

// Close cancels every running job and closes the study journals. Safe to
// call once the HTTP server has stopped serving.
func (s *Server) Close() error {
	s.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	hashes := make([]string, 0, len(s.journals))
	for hash := range s.journals {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	var errs []error
	for _, hash := range hashes {
		if err := s.journals[hash].Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal %s: %w", hash, err))
		}
	}
	s.journals = map[string]*journal.Journal{}
	return errors.Join(errs...)
}

// journalFor returns the shared journal for a study-request hash,
// opening it on first use. Sharing one Journal per hash keeps two
// concurrent identical studies from interleaving appends from separate
// writers, and means a resubmitted study is served its predecessor's
// completed cells straight from the replay map.
func (s *Server) journalFor(hash string) (*journal.Journal, error) {
	if s.cfg.JournalDir == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if jn, ok := s.journals[hash]; ok {
		return jn, nil
	}
	jn, err := journal.Open(filepath.Join(s.cfg.JournalDir, hash+".jsonl"))
	if err != nil {
		return nil, err
	}
	s.journals[hash] = jn
	return jn, nil
}

// Handler returns the server's routes behind the request-metrics
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/cell", s.handleCell)
	mux.HandleFunc("POST /api/v1/study", s.handleStudySubmit)
	mux.HandleFunc("GET /api/v1/study", s.handleStudyList)
	mux.HandleFunc("GET /api/v1/study/{id}", s.handleStudyStatus)
	mux.HandleFunc("DELETE /api/v1/study/{id}", s.handleStudyCancel)
	mux.HandleFunc("GET /api/v1/study/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /progress/{id}", s.handleProgress)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Inc()
		t := obs.StartTimer()
		defer obsRequestNs.ObserveSince(t)
		mux.ServeHTTP(w, r)
	})
}

// writeJSON emits v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is nobody left to
	// report it to.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured JSON error body (code is one of the
// api.Code* constants — the stable contract api.Client maps onto typed
// errors). 429s count as admission rejections and carry a Retry-After
// hint: admission pressure clears as soon as a study slot or cell
// budget frees, so the hint is deliberately coarse.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		obsRejected.Inc()
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the process metric registry — the same snapshot
// the CLI's -metrics-out writes, so dashboards and the smoke gate read
// cache hit rates, cell latencies, and admission counters from one
// source of truth.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone mid-snapshot.
	_ = obs.Default.WriteJSON(w)
}

// buildOptions turns wire knobs into validated core Options carrying the
// server's shared cache and the given backend.
func (s *Server) buildOptions(scale float64, seed uint64, policy string, backend core.Backend, jn *journal.Journal) (core.Options, error) {
	pol, err := sched.ParsePolicy(policy)
	if err != nil {
		return core.Options{}, err
	}
	opts := []core.Option{
		core.WithScale(scale),
		core.WithSeed(seed),
		core.WithPolicy(pol),
		core.WithWorkers(s.cfg.Workers),
		core.WithBackend(backend),
	}
	if s.cfg.Cache != nil {
		opts = append(opts, core.WithCache(s.cfg.Cache))
	}
	if jn != nil {
		opts = append(opts, core.WithJournal(jn))
	}
	return core.NewOptions(opts...)
}

// maxRequestBytes bounds a cell or study request body (1 MiB). Real
// requests are a few hundred bytes; a larger body fails decoding and
// answers 400 bad_request instead of being buffered whole.
const maxRequestBytes = 1 << 20

// handleCell runs one simulation cell synchronously. The request context
// carries the client connection: a disconnect cancels the cell cleanly
// (waiters leave the dedupe/gate queues immediately; a running leader
// finishes its current cell at the next engine checkpoint).
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req api.CellRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding cell request: %v", err)
		return
	}
	if len(req.Benchmarks) < 1 || len(req.Benchmarks) > 2 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "benchmarks must name 1 or 2 programs, got %d", len(req.Benchmarks))
		return
	}
	var progs []profiles.Profile
	for _, name := range req.Benchmarks {
		p, err := profiles.ByName(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			return
		}
		progs = append(progs, p)
	}
	cfg, err := config.ByName(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	norm := api.StudyRequest{Scale: req.Scale, Seed: req.Seed, Policy: req.Policy}.Normalized()
	if norm.Scale < 0 || norm.Scale > s.cfg.MaxScale {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "scale %g outside (0, %g]", norm.Scale, s.cfg.MaxScale)
		return
	}
	capture := &captureBackend{inner: s.backend}
	opt, err := s.buildOptions(norm.Scale, norm.Seed, norm.Policy, capture, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}

	res, err := core.RunContext(r.Context(), core.Workload{Programs: progs}, cfg, opt)
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; the response would go nowhere.
			return
		}
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	// Raw counters travel alongside the derived metrics: a remote backend
	// rebuilds its RunResult (and its own cache/journal payloads) from
	// them, re-deriving metrics on its side.
	writeJSON(w, http.StatusOK, api.CellResponse{
		Cached:     capture.cached,
		WallCycles: res.WallCycles,
		Programs:   core.EncodePrograms(res, true),
	})
}

// handleStudySubmit admits, registers, and starts one study job,
// answering 202 with the job's initial status.
func (s *Server) handleStudySubmit(w http.ResponseWriter, r *http.Request) {
	var req api.StudyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding study request: %v", err)
		return
	}
	req = req.Normalized()
	study, err := core.NewStudy(req.Study)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	cells, err := core.StudyCells(req.Study)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if req.Scale < 0 || req.Scale > s.cfg.MaxScale {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "scale %g outside (0, %g]", req.Scale, s.cfg.MaxScale)
		return
	}
	if _, err := sched.ParsePolicy(req.Policy); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if cells > s.cfg.MaxCellsPerRequest {
		writeError(w, http.StatusTooManyRequests, api.CodeOverBudget,
			"study %q expands to %d cells, over the per-request budget of %d", req.Study, cells, s.cfg.MaxCellsPerRequest)
		return
	}
	hash, err := req.Hash()
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}

	s.mu.Lock()
	if s.active >= s.cfg.MaxConcurrentStudies {
		active := s.active
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, api.CodeOverBudget,
			"%d studies already running, concurrency budget is %d", active, s.cfg.MaxConcurrentStudies)
		return
	}
	s.active++
	obsActiveStudies.Set(float64(s.active))
	s.jobSeq++
	id := fmt.Sprintf("job-%d", s.jobSeq)
	ctx, cancel := context.WithCancel(s.ctx)
	j := newJob(id, hash, req, study, cells, cancel)
	s.jobs[id] = j
	s.mu.Unlock()

	obsStudiesAccepted.Inc()
	go s.runJob(ctx, j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// runJob executes one study job to its terminal state.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer func() {
		s.mu.Lock()
		s.active--
		obsActiveStudies.Set(float64(s.active))
		s.mu.Unlock()
		j.cancel() // release the context resources either way
	}()
	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			obsStudiesCanceled.Inc()
			j.finish(api.StateCanceled, err, nil, nil)
			return
		}
		obsStudiesFailed.Inc()
		j.finish(api.StateFailed, err, nil, nil)
	}
	jn, err := s.journalFor(j.hash)
	if err != nil {
		fail(err)
		return
	}
	opt, err := s.buildOptions(j.req.Scale, j.req.Seed, j.req.Policy, &recordingBackend{job: j, inner: s.backend}, jn)
	if err != nil {
		fail(err)
		return
	}
	if err := j.study.Run(ctx, opt); err != nil {
		fail(err)
		return
	}
	arts, err := j.study.Artifacts()
	if err != nil {
		fail(err)
		return
	}
	var names []string
	byName := map[string][]byte{}
	for _, a := range arts {
		b, err := a.MarshalCanonical()
		if err != nil {
			fail(err)
			return
		}
		names = append(names, a.Name)
		byName[a.Name] = b
	}
	obsStudiesDone.Inc()
	j.finish(api.StateDone, nil, names, byName)
}

// jobByID resolves the {id} path value, answering 404 itself.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no study job %q", id)
		return nil
	}
	return j
}

func (s *Server) handleStudyList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Submission order: job ids carry the sequence number ("job-12"), and
	// lexicographic order gets multi-digit suffixes wrong.
	sort.Slice(jobs, func(a, b int) bool { return jobSeqOf(jobs[a].id) < jobSeqOf(jobs[b].id) })
	statuses := make([]api.StudyStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStudyStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobByID(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleStudyCancel aborts a running job. Cancellation is clean by
// construction: the study stops between cells, every completed cell is
// already flushed to the study's journal, and resubmitting the same
// request resumes from that tail.
func (s *Server) handleStudyCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleArtifact serves one finished artifact's canonical bytes
// verbatim — the byte-identity contract endpoint. Writing the body to a
// file yields exactly what golden.Write stores for a local run of the
// same study, so clients can diff against testdata/golden directly.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	st := j.status()
	if st.State != api.StateDone {
		writeError(w, http.StatusConflict, api.CodeConflict, "study job %s is %s; artifacts exist only once done", st.ID, st.State)
		return
	}
	name := r.PathValue("name")
	b, ok := j.artifact(name)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "job %s has no artifact %q (have %v)", st.ID, name, st.Artifacts)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A short write means the client hung up mid-artifact.
	_, _ = w.Write(b)
}

// handleProgress streams the job's event log as newline-delimited JSON,
// flushing per event, until the job is terminal or the client leaves.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// The only error paths are a gone client or a canceled request;
	// either way the stream just ends.
	_ = j.stream(r.Context(), func(e api.Event) error {
		if err := enc.Encode(e); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// captureBackend records whether the single cell it ran was served from
// a cache tier — RunContext folds the flag into the obs counters but does
// not return it, and the cell endpoint reports it per response.
type captureBackend struct {
	inner  core.Backend
	cached bool
}

func (b *captureBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	res, cached, err := b.inner.RunCell(ctx, w, cfg, opt)
	b.cached = cached
	return res, cached, err
}

func jobSeqOf(id string) int {
	var n int
	// ids are always "job-<seq>"; a foreign id sorts first, harmlessly.
	_, _ = fmt.Sscanf(id, "job-%d", &n)
	return n
}

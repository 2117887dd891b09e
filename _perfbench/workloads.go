package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/golden"
	"xeonomp/internal/journal"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/server"
	"xeonomp/internal/shard"
)

const (
	// A run sets its workload up at least setupReps times, and up to
	// maxSetupReps times while the set-ups take under setupMin in all;
	// setup_s is the median.
	setupReps    = 3
	maxSetupReps = 25
	setupMin     = time.Second
	// goldenSeed and goldenScale are what testdata/golden was generated
	// at (Makefile GOLDEN_SCALE, xeonchar's default seed).
	goldenSeed  = 1
	goldenScale = 0.1
	goldenDir   = "testdata/golden"
	// referenceSamples is how many golden-cold cells are re-run on the
	// reference engine at seeds without a golden set.
	referenceSamples = 3
	// serveScale and fleetScale size the served cells. The engine does no
	// work in those workloads' measured phase, so a small scale only
	// shortens set-up and the local checking runs.
	serveScale = 0.02
	fleetScale = 0.003
	// clients is the caller count and connection bound: the load fits a
	// two-CPU host.
	clients = 2
)

// setupFunc sets a workload up from its seed.
type setupFunc func(ctx context.Context, seed uint64) (environment, error)

// environment is a set-up workload.
type environment interface {
	// measure runs the workload for about d, reporting to p. golden-cold
	// runs whole passes and fleet-resume whole rounds, at least one.
	measure(ctx context.Context, d time.Duration, p *probe) error
	// verify checks the measured outputs against an independent run and
	// returns the number of mismatches.
	verify(ctx context.Context) (int, error)
	// harness returns the workload's cells for the isolated drivers.
	harness() harnessInput
	close() error
}

// harnessInput is what the harness-layer drivers replay: the workload's
// cells, the options they ran under and a cache holding their payloads.
type harnessInput struct {
	cells    []string // cellName values
	opt      core.Options
	payloads *runcache.Cache
}

// workloads are the sets of inputs the benchmark runs, by name.
var workloads = map[string]setupFunc{
	"golden-cold":  setupGoldenCold,
	"serve-warm":   setupServeWarm,
	"fleet-resume": setupFleetResume,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parseCell inverts cellName.
func parseCell(name string) (core.Workload, config.Configuration, error) {
	progs, cfgName, ok := strings.Cut(name, "|")
	if !ok {
		return core.Workload{}, config.Configuration{}, fmt.Errorf("malformed cell %q", name)
	}
	var w core.Workload
	for _, b := range strings.Split(progs, "/") {
		p, err := profiles.ByName(b)
		if err != nil {
			return core.Workload{}, config.Configuration{}, err
		}
		w.Programs = append(w.Programs, p)
	}
	cfg, err := config.ByName(cfgName)
	return w, cfg, err
}

// sameResult reports whether two results carry the same cycles and
// counters; derived metrics follow from those.
func sameResult(a, b *core.RunResult) bool {
	if a == nil || b == nil || a.WallCycles != b.WallCycles || len(a.Programs) != len(b.Programs) {
		return false
	}
	for i := range a.Programs {
		x, y := &a.Programs[i], &b.Programs[i]
		if x.Benchmark != y.Benchmark || x.Threads != y.Threads || x.Cycles != y.Cycles || x.Counters != y.Counters {
			return false
		}
	}
	return true
}

// sameCells compares every cell of got with want and returns the number
// of cells missing or different.
func sameCells(want, got map[string]*core.RunResult) int {
	bad := 0
	for name, w := range want {
		if !sameResult(w, got[name]) {
			bad++
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad++
		}
	}
	return bad
}

// runStudies runs the paper's three studies under opt and returns their
// artifacts.
func runStudies(ctx context.Context, opt core.Options) ([]*golden.Artifact, error) {
	var arts []*golden.Artifact
	for _, st := range []core.Study{core.NewSingleStudy(), core.NewPairStudy(), core.NewCrossStudy()} {
		if err := st.Run(ctx, opt); err != nil {
			return nil, err
		}
		as, err := st.Artifacts()
		if err != nil {
			return nil, err
		}
		arts = append(arts, as...)
	}
	return arts, nil
}

// canonical renders artifacts as their canonical bytes, by name.
func canonical(arts []*golden.Artifact) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, a := range arts {
		b, err := a.MarshalCanonical()
		if err != nil {
			return nil, err
		}
		out[a.Name] = b
	}
	return out, nil
}

// sameBytes counts the artifacts of got that are missing from want or
// differ from it byte for byte, and the artifacts got lacks.
func sameBytes(want, got map[string][]byte) int {
	bad := 0
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			bad++
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad++
		}
	}
	return bad
}

// complaints bounds the mismatch reports written to standard error: the
// counts in the result carry the rest.
var complaints atomic.Int32

func complain(format string, args ...any) {
	if complaints.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// workRoot is the per-process scratch directory inside the checkout.
func workRoot() string {
	return filepath.Join(".bench_build", "work", fmt.Sprintf("%d", os.Getpid()))
}

// workDir creates and returns a scratch directory below workRoot.
func workDir(name string) (string, error) {
	dir := filepath.Join(workRoot(), name)
	return dir, os.MkdirAll(dir, 0o755)
}

// ---- golden-cold ----------------------------------------------------

// goldenCold runs every study plus LMbench at the golden scale, in
// process, with an empty run cache per pass.
type goldenCold struct {
	seed   uint64
	opt    core.Options
	stored []*golden.Artifact // the golden set, at the golden seed
	s      seam
	// last pass: its cells, and the cache holding their payloads.
	last       map[string]*core.RunResult
	lastCache  *runcache.Cache
	mismatches int
}

func setupGoldenCold(_ context.Context, seed uint64) (environment, error) {
	opt, err := core.NewOptions(core.WithScale(goldenScale), core.WithSeed(seed), core.WithWorkers(clients))
	if err != nil {
		return nil, err
	}
	g := &goldenCold{seed: seed, opt: opt}
	// The golden set is read and provenance-checked at every seed, as
	// xeonchar -check does before spending study time.
	stored, err := golden.LoadDir(goldenDir)
	if err != nil {
		return nil, err
	}
	for _, a := range stored {
		if a.Scale != 0 && a.Scale != goldenScale || a.Seed != 0 && a.Seed != goldenSeed {
			return nil, fmt.Errorf("golden artifact %s was generated at scale %g seed %d", a.Name, a.Scale, a.Seed)
		}
	}
	if seed == goldenSeed {
		g.stored = stored
	}
	return g, nil
}

// pass runs one golden check's worth of work and returns its artifacts.
func (g *goldenCold) pass(ctx context.Context) ([]*golden.Artifact, error) {
	cache, err := runcache.New(0, "")
	if err != nil {
		return nil, err
	}
	opt := g.opt
	opt.Cache = cache
	opt.Backend = &spanBackend{s: &g.s, inner: core.Local(), layer: layerFrontend, outer: true, engine: true}
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		return nil, err
	}
	r, err := lmbench.Measure(m)
	if err != nil {
		return nil, err
	}
	arts := []*golden.Artifact{
		r.Artifact(lmbench.GoldenName, golden.Relative(1e-9)),
		r.Artifact(lmbench.PaperGoldenName, golden.Relative(0.05)),
	}
	as, err := runStudies(ctx, opt)
	if err != nil {
		return nil, err
	}
	g.lastCache = cache
	return append(arts, as...), nil
}

func (g *goldenCold) measure(ctx context.Context, d time.Duration, p *probe) error {
	g.s.cur.Store(p)
	defer g.s.cur.Store(nil)
	p.begin()
	defer p.end()
	for {
		before := p.elapsed
		var arts []*golden.Artifact
		err := p.timed(func() (err error) {
			arts, err = g.pass(ctx)
			return err
		})
		if err != nil {
			return err
		}
		p.cut()
		if g.stored != nil {
			checking(ctx, func(context.Context) {
				t := time.Now()
				g.mismatches += compareGolden(g.stored, arts)
				p.goldenCompare += time.Since(t)
			})
		}
		// Start another pass only if it fits in d.
		if p.elapsed+(p.elapsed-before) > d || ctx.Err() != nil {
			break
		}
	}
	g.last = maps.Clone(p.results)
	return ctx.Err()
}

// compareGolden checks live against the golden set the way xeonchar
// -check does and returns the number of drifting metrics and missing or
// stale artifacts.
func compareGolden(stored, live []*golden.Artifact) int {
	byName := map[string]*golden.Artifact{}
	for _, a := range live {
		byName[a.Name] = a
	}
	bad := 0
	for _, s := range stored {
		l, ok := byName[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "golden-cold: %s missing from the live run\n", s.Name)
			bad++
			continue
		}
		delete(byName, s.Name)
		rep, err := golden.Compare(s, l)
		if err != nil {
			fmt.Fprintf(os.Stderr, "golden-cold: %s: %v\n", s.Name, err)
			bad++
			continue
		}
		if !rep.OK() {
			fmt.Fprintln(os.Stderr, rep.String())
			bad += max(1, len(rep.Drifts)+len(rep.Problems))
		}
	}
	for name := range byName {
		fmt.Fprintf(os.Stderr, "golden-cold: %s produced but not in %s\n", name, goldenDir)
		bad++
	}
	return bad
}

// verify re-runs a seeded sample of the last pass's cells on the
// reference engine at seeds without a golden set.
func (g *goldenCold) verify(ctx context.Context) (int, error) {
	bad := g.mismatches
	if g.stored != nil || len(g.last) == 0 {
		return bad, nil
	}
	names := make([]string, 0, len(g.last))
	for n := range g.last {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(int64(g.seed)))
	opt := g.opt
	opt.Reference = true
	for i := 0; i < referenceSamples && i < len(names); i++ {
		name := names[rng.Intn(len(names))]
		w, cfg, err := parseCell(name)
		if err != nil {
			return bad, err
		}
		ref, err := core.RunContext(ctx, w, cfg, opt)
		if err != nil {
			return bad, err
		}
		if !sameResult(ref, g.last[name]) {
			complain("golden-cold: cell %s differs from the reference engine", name)
			bad++
		}
	}
	return bad, nil
}

func (g *goldenCold) harness() harnessInput {
	return harnessInput{cells: sortedKeys(g.last), opt: g.opt, payloads: g.lastCache}
}

func (g *goldenCold) close() error { return nil }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- in-process daemons ---------------------------------------------

// daemon is one xeond: server.New on a loopback listener, its handler
// wrapped by the seam.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startDaemon(s *seam, cfg server.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    server.New(cfg),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	d.hs = &http.Server{Handler: s.handler(d.srv.Handler()), ReadHeaderTimeout: time.Minute}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops serving, waits for the serve loop to return, then closes
// the server.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Close())
}

// ---- serve-warm -----------------------------------------------------

// serveWarm is one in-process xeond with a warm cache, driven by two
// closed-loop api.Client callers.
type serveWarm struct {
	seed   uint64
	opt    core.Options
	s      seam
	d      *daemon
	tr     *http.Transport
	client *api.Client
	cache  *runcache.Cache
	cells  []api.CellRequest
	names  []string
	want   []api.CellResponse
}

// warmSet is serve-warm's warm set: every Table-1 configuration once as
// a single-program cell and once as a pair, over the benchmark profiles
// in turn. It is the same at every seed, so the reply sizes and the
// simulated cycles per reply do not depend on the seed; the seed sets
// the simulation seed and the order the callers request the cells in.
func warmSet(seed uint64) ([]api.CellRequest, []string) {
	var benches []string
	for _, p := range profiles.All() {
		benches = append(benches, p.Name)
	}
	var cells []api.CellRequest
	var names []string
	for i, cfg := range config.Table1() {
		for _, progs := range [][]string{
			{benches[i%len(benches)]},
			{benches[(2*i+1)%len(benches)], benches[(2*i+2)%len(benches)]},
		} {
			cells = append(cells, api.CellRequest{Benchmarks: progs, Config: cfg.Name, Scale: serveScale, Seed: seed})
			names = append(names, strings.Join(progs, "/")+"|"+cfg.Name)
		}
	}
	return cells, names
}

func setupServeWarm(ctx context.Context, seed uint64) (environment, error) {
	opt, err := core.NewOptions(core.WithScale(serveScale), core.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	cache, err := runcache.New(0, "")
	if err != nil {
		return nil, err
	}
	sw := &serveWarm{seed: seed, opt: opt, cache: cache}
	sw.d, err = startDaemon(&sw.s, server.Config{
		Backend: &spanBackend{s: &sw.s, inner: core.Local(), layer: layerServerBackend, engine: true},
		Cache:   cache,
		Workers: clients,
	})
	if err != nil {
		return nil, err
	}
	var hc *http.Client
	hc, sw.tr = newHTTPClient(clients)
	sw.client = api.NewClient(sw.d.url, api.WithHTTPClient(hc), api.WithTimeout(time.Minute))
	sw.cells, sw.names = warmSet(seed)
	sw.want = make([]api.CellResponse, len(sw.cells))
	err = parallel(clients, len(sw.cells), func(i int) (err error) {
		sw.want[i], err = sw.client.RunCell(ctx, sw.cells[i])
		return err
	})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warming: %w", err), sw.close())
	}
	return sw, nil
}

// parallel runs fn over 0..n-1 on k goroutines and waits for them.
func parallel(k, n int, fn func(i int) error) error {
	next := make(chan int)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func (sw *serveWarm) measure(ctx context.Context, d time.Duration, p *probe) error {
	sw.s.cur.Store(p)
	defer sw.s.cur.Store(nil)
	p.begin()
	defer p.end()
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(sw.seed)*clients + int64(c)))
	}
	// The phase runs as slices of about a second.
	slices := max(1, int(d/time.Second))
	for i := 0; i < slices; i++ {
		deadline := time.Now().Add(d / time.Duration(slices))
		err := p.timed(func() error {
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = sw.caller(ctx, p, rngs[c], deadline)
				}(c)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		if err != nil {
			return err
		}
		p.cut()
	}
	return nil
}

// caller is one closed-loop client: it sends its next cell only after
// the previous reply arrived, until the deadline.
func (sw *serveWarm) caller(ctx context.Context, p *probe, rng *rand.Rand, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := rng.Intn(len(sw.cells))
		cctx := ctx
		var id uint64
		if p.traced {
			id = cellSeq.Add(1)
			cctx = withCell(ctx, id)
		}
		start := time.Now()
		resp, err := sw.client.RunCell(cctx, sw.cells[i])
		end := time.Now()
		p.span(id, layerClient, start, end)
		if err == nil && !sameResponse(resp, sw.want[i]) {
			err = fmt.Errorf("cell %s: reply differs from the set-up result", sw.names[i])
			complain("serve-warm: %v", err)
			p.mu.Lock()
			p.wrong++
			p.mu.Unlock()
		}
		p.finish(sw.names[i], end.Sub(start), resp.WallCycles, nil, err, ctx.Err())
	}
	return nil
}

// sameResponse compares the cycles and counters of two cell replies.
func sameResponse(a, b api.CellResponse) bool {
	if a.WallCycles != b.WallCycles || len(a.Programs) != len(b.Programs) {
		return false
	}
	for i := range a.Programs {
		x, y := a.Programs[i], b.Programs[i]
		if x.Benchmark != y.Benchmark || x.Threads != y.Threads || x.Cycles != y.Cycles || !maps.Equal(x.Counters, y.Counters) {
			return false
		}
	}
	return true
}

// verify computes every warm cell locally and compares it with the reply
// the set-up received, which every measured reply already matched.
func (sw *serveWarm) verify(ctx context.Context) (int, error) {
	bad := 0
	for i, name := range sw.names {
		w, cfg, err := parseCell(name)
		if err != nil {
			return bad, err
		}
		res, err := core.RunContext(ctx, w, cfg, sw.opt)
		if err != nil {
			return bad, err
		}
		if !sameResponse(responseOf(res), sw.want[i]) {
			complain("serve-warm: cell %s served differently from a local run", name)
			bad++
		}
	}
	return bad, nil
}

func responseOf(res *core.RunResult) api.CellResponse {
	out := api.CellResponse{WallCycles: res.WallCycles}
	for i := range res.Programs {
		p := &res.Programs[i]
		out.Programs = append(out.Programs, api.CellProgram{
			Benchmark: p.Benchmark, Threads: p.Threads, Cycles: p.Cycles, Counters: p.Counters.NonzeroMap(),
		})
	}
	return out
}

func (sw *serveWarm) harness() harnessInput {
	return harnessInput{cells: sw.names, opt: sw.opt, payloads: sw.cache}
}

func (sw *serveWarm) close() error {
	err := sw.d.close()
	sw.tr.CloseIdleConnections()
	return err
}

// ---- fleet-resume ---------------------------------------------------

// fleetResume is two warmed worker daemons under a fresh in-process
// sharding frontend per phase, with an on-disk cache and journal.
type fleetResume struct {
	seed    uint64
	opt     core.Options
	s       seam
	workers []*daemon
	tr      *http.Transport
	front   core.Backend // span(Cached(span(Shard)))
	dir     string
	// cacheDir is the disk tier the set-up wrote every cell to.
	cacheDir string
	// first is the first write phase's output; every later phase must
	// match it byte for byte, and verify matches it with a local run.
	first      map[string][]byte
	firstCells map[string]*core.RunResult
	lastCache  *runcache.Cache
	mismatches int
	rounds     int
}

func setupFleetResume(ctx context.Context, seed uint64) (environment, error) {
	opt, err := core.NewOptions(core.WithScale(fleetScale), core.WithSeed(seed), core.WithWorkers(clients))
	if err != nil {
		return nil, err
	}
	f := &fleetResume{seed: seed, opt: opt}
	if f.dir, err = workDir(fmt.Sprintf("fleet-%d", time.Now().UnixNano())); err != nil {
		return nil, err
	}
	hc, tr := newHTTPClient(1)
	f.tr = tr
	var remotes []*shard.Remote
	for i := 0; i < clients; i++ {
		cache, err := runcache.New(0, "")
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		d, err := startDaemon(&f.s, server.Config{
			Backend: &spanBackend{s: &f.s, inner: core.Local(), layer: layerServerBackend, engine: true},
			Cache:   cache,
			Workers: 1,
		})
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.workers = append(f.workers, d)
		remotes = append(remotes, shard.NewRemote(api.NewClient(d.url, api.WithHTTPClient(hc), api.WithTimeout(time.Minute))))
	}
	sh, err := shard.New(remotes, shard.WithInflight(1))
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	f.front = &spanBackend{s: &f.s, layer: layerFrontend, outer: true,
		inner: core.Cached(&spanBackend{s: &f.s, inner: sh, layer: layerShard})}
	// Warm the workers: every study cell is computed once, on its home
	// worker, through a throwaway frontend whose run cache writes every
	// cell to the disk tier the restart phases read.
	warm := opt
	f.cacheDir = filepath.Join(f.dir, "cache")
	if warm.Cache, err = runcache.New(0, f.cacheDir); err != nil {
		return nil, errors.Join(err, f.close())
	}
	warm.Backend = f.front
	if _, err := runStudies(ctx, warm); err != nil {
		return nil, errors.Join(fmt.Errorf("warming: %w", err), f.close())
	}
	return f, nil
}

// phase runs the studies through a fresh frontend with the given tiers,
// timed, and checks the outputs against the first write phase.
func (f *fleetResume) phase(ctx context.Context, p *probe, open func() (*runcache.Cache, *journal.Journal, error), read bool) error {
	p.mu.Lock()
	p.results = map[string]*core.RunResult{}
	sent := p.shardCalls
	p.mu.Unlock()
	var arts []*golden.Artifact
	var cache *runcache.Cache
	err := p.timed(func() error {
		c, jn, err := open()
		if err != nil {
			return err
		}
		opt := f.opt
		opt.Cache, opt.Journal, opt.Backend = c, jn, f.front
		arts, err = runStudies(ctx, opt)
		cache = c
		return errors.Join(err, jn.Close())
	})
	if err != nil {
		return err
	}
	f.lastCache = cache
	checking(ctx, func(context.Context) {
		got, cerr := canonical(arts)
		if cerr != nil {
			err = cerr
			return
		}
		if f.first == nil {
			f.first, f.firstCells = got, maps.Clone(p.results)
			return
		}
		bad := sameBytes(f.first, got) + sameCells(f.firstCells, p.results)
		if read && p.shardCalls != sent {
			complain("fleet-resume: read phase sent %d cells to the shard", p.shardCalls-sent)
			bad++
		}
		if bad > 0 {
			complain("fleet-resume: %d mismatching artifacts or cells", bad)
		}
		f.mismatches += bad
	})
	return err
}

func (f *fleetResume) measure(ctx context.Context, d time.Duration, p *probe) error {
	f.s.cur.Store(p)
	defer f.s.cur.Store(nil)
	p.begin()
	defer p.end()
	for {
		f.rounds++
		jpath := filepath.Join(f.dir, fmt.Sprintf("journal-%d.jsonl", f.rounds))
		// Write phase: every cell crosses the shard hop and is Appended to
		// a fresh journal.
		err := f.phase(ctx, p, func() (*runcache.Cache, *journal.Journal, error) {
			c, err := runcache.New(0, "")
			if err != nil {
				return nil, nil, err
			}
			jn, err := journal.Open(jpath)
			return c, jn, err
		}, false)
		if err != nil {
			return err
		}
		// Read phase, resume: the journal replays every cell.
		err = f.phase(ctx, p, func() (*runcache.Cache, *journal.Journal, error) {
			t := time.Now()
			jn, err := journal.Open(jpath)
			p.journalOpens = append(p.journalOpens, int64(time.Since(t)))
			if err != nil {
				return nil, nil, err
			}
			c, err := runcache.New(0, "")
			return c, jn, err
		}, true)
		if err != nil {
			return err
		}
		// Read phase, restart: the disk tier serves every cell.
		err = f.phase(ctx, p, func() (*runcache.Cache, *journal.Journal, error) {
			c, err := runcache.New(0, f.cacheDir)
			return c, nil, err
		}, true)
		if err != nil {
			return err
		}
		p.cut()
		checking(ctx, func(context.Context) { err = os.Remove(jpath) })
		if err != nil || p.elapsed >= d || ctx.Err() != nil {
			return errors.Join(err, ctx.Err())
		}
	}
}

// verify runs the studies locally and compares them with the first write
// phase, which every other phase already matched.
func (f *fleetResume) verify(ctx context.Context) (int, error) {
	if f.first == nil {
		return f.mismatches, nil
	}
	var local seam
	p := newProbe(false)
	local.cur.Store(p)
	opt := f.opt
	var err error
	if opt.Cache, err = runcache.New(0, ""); err != nil {
		return f.mismatches, err
	}
	opt.Backend = &spanBackend{s: &local, inner: core.Local(), layer: layerFrontend, outer: true}
	arts, err := runStudies(ctx, opt)
	if err != nil {
		return f.mismatches, err
	}
	want, err := canonical(arts)
	if err != nil {
		return f.mismatches, err
	}
	bad := sameBytes(want, f.first) + sameCells(p.results, f.firstCells)
	if bad > 0 {
		complain("fleet-resume: %d artifacts or cells differ from a local run", bad)
	}
	return f.mismatches + bad, nil
}

func (f *fleetResume) harness() harnessInput {
	return harnessInput{cells: sortedKeys(f.firstCells), opt: f.opt, payloads: f.lastCache}
}

func (f *fleetResume) close() error {
	var errs []error
	for _, d := range f.workers {
		errs = append(errs, d.close())
	}
	if f.tr != nil {
		f.tr.CloseIdleConnections()
	}
	if f.dir != "" {
		errs = append(errs, os.RemoveAll(f.dir))
	}
	return errors.Join(errs...)
}

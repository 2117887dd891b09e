// Package runflags is the run-cache, journal, progress and observability
// flag block that cmd/xeonchar and cmd/sweep share: -cache-dir,
// -cache-size, -journal, -resume, -progress, -trace-out and -metrics-out.
// Register declares the flags, Open turns them into core options, and
// Finish closes the journal and writes the trace and metrics files, so an
// error or a Ctrl-C cancellation still leaves complete files behind.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xeonomp/internal/core"
	"xeonomp/internal/journal"
	"xeonomp/internal/obs"
	"xeonomp/internal/runcache"
)

// Flags holds the parsed flag values and what Open set up from them.
type Flags struct {
	cmd        string
	cacheDir   *string
	cacheSize  *int
	journal    *string
	resume     *bool
	progress   *time.Duration
	traceOut   *string
	metricsOut *string

	cache *runcache.Cache
	jn    *journal.Journal
	prog  *journal.Progress
}

// Register declares the flags on the default flag set. cmd prefixes the
// diagnostics Finish prints; cacheDirUsage is the command's -cache-dir
// help text.
func Register(cmd, cacheDirUsage string) *Flags {
	return &Flags{
		cmd:        cmd,
		cacheDir:   flag.String("cache-dir", "", cacheDirUsage),
		cacheSize:  flag.Int("cache-size", 0, "in-memory run-cache entries (0 = default 4096, negative disables caching)"),
		journal:    flag.String("journal", "", "append every completed cell to this JSONL run journal"),
		resume:     flag.Bool("resume", false, "replay the -journal file before running, skipping already-completed cells"),
		progress:   flag.Duration("progress", 10*time.Second, "progress-report interval on stderr (0 disables)"),
		traceOut:   flag.String("trace-out", "", "write a Chrome trace_event JSON of study/cell spans to this file (chrome://tracing, Perfetto)"),
		metricsOut: flag.String("metrics-out", "", "write a JSON snapshot of the obs metric registry to this file on exit"),
	}
}

// Check reports a flag combination the command must refuse as a usage
// error (exit status 2).
func (f *Flags) Check() error {
	if *f.resume && *f.journal == "" {
		return errors.New("-resume requires -journal")
	}
	return nil
}

// Open starts tracing, opens the run cache and the journal, and starts
// progress reporting, returning the options that wire them into a run.
// Defer Finish before calling Open: it releases whatever Open set up,
// also when Open fails part-way.
func (f *Flags) Open() ([]core.Option, error) {
	if *f.traceOut != "" {
		obs.SetTracer(obs.NewTracer())
	}
	var opts []core.Option
	if *f.cacheSize >= 0 {
		c, err := runcache.New(*f.cacheSize, *f.cacheDir)
		if err != nil {
			return nil, err
		}
		f.cache = c
		opts = append(opts, core.WithCache(c))
	}
	if *f.journal != "" {
		if !*f.resume {
			// Without -resume a journal records this invocation only.
			if err := os.Remove(*f.journal); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		jn, err := journal.Open(*f.journal)
		if err != nil {
			return nil, err
		}
		f.jn = jn
		if *f.resume {
			fmt.Fprintf(os.Stderr, "resuming: %d completed cells replayed from %s", jn.Len(), *f.journal)
			if n := jn.Skipped(); n > 0 {
				fmt.Fprintf(os.Stderr, " (%d corrupt line(s) discarded)", n)
			}
			fmt.Fprintln(os.Stderr)
		}
		opts = append(opts, core.WithJournal(jn))
	}
	if *f.progress > 0 {
		f.prog = journal.NewProgress(os.Stderr, *f.progress)
		opts = append(opts, core.WithProgress(f.prog))
	}
	return opts, nil
}

// Finish stops progress reporting and prints the run-cache summary,
// closes the journal, then writes the metrics and trace files. It returns
// the first file-write error; a journal close error is printed only, as
// every completed cell is already on disk.
func (f *Flags) Finish() error {
	if f.prog != nil {
		f.prog.Finish()
		if s := f.cache.Stats(); s.Hits()+s.Misses > 0 {
			fmt.Fprintf(os.Stderr, "run cache: %d mem hits, %d disk hits, %d misses (%.1f%% hit rate), %d evictions\n",
				s.MemHits, s.DiskHits, s.Misses, 100*s.HitRate(), s.Evictions)
		}
	}
	if f.jn != nil {
		if err := f.jn.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing journal: %v\n", f.cmd, err)
		}
	}
	var err error
	if *f.metricsOut != "" {
		err = writeFile(*f.metricsOut, obs.Default.WriteJSON)
	}
	if *f.traceOut != "" {
		if terr := writeFile(*f.traceOut, obs.CurrentTracer().WriteTrace); err == nil {
			err = terr
		}
	}
	return err
}

// writeFile creates path and streams one observability dump into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

package core

import (
	"fmt"

	"xeonomp/internal/journal"
	"xeonomp/internal/machine"
	"xeonomp/internal/runcache"
	"xeonomp/internal/sched"
)

// Option mutates an Options under construction; see NewOptions.
type Option func(*Options)

// NewOptions builds run Options from DefaultOptions plus the given
// functional options, and validates the result — so a bad scale or a
// negative worker count fails at construction, where the mistake is, not
// cells later inside a study. The Options struct remains exported for
// callers that prefer literal construction; both paths go through the
// same validation in Run.
func NewOptions(opts ...Option) (Options, error) {
	o := DefaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// WithScale sets the workload scale factor (1.0 = full size).
func WithScale(scale float64) Option {
	return func(o *Options) { o.Scale = scale }
}

// WithSeed sets the trial seed.
func WithSeed(seed uint64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithPolicy sets the thread-placement policy.
func WithPolicy(p sched.Policy) Option {
	return func(o *Options) { o.Policy = p }
}

// WithMachine sets the platform; nil keeps machine.PaxvilleSMP.
func WithMachine(m *machine.Config) Option {
	return func(o *Options) { o.Machine = m }
}

// WithCycleLimit bounds each run's cycles (0 = unlimited).
func WithCycleLimit(limit int64) Option {
	return func(o *Options) { o.CycleLimit = limit }
}

// WithWarmupFrac sets the counter-warmup fraction in [0,1).
func WithWarmupFrac(frac float64) Option {
	return func(o *Options) { o.WarmupFrac = frac }
}

// WithSampleInterval attaches the counter sampler with the given window in
// cycles (0 = off).
func WithSampleInterval(interval int64) Option {
	return func(o *Options) { o.SampleInterval = interval }
}

// WithWorkers parallelizes the study drivers (<= 1 = sequential).
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithCache memoizes simulation cells in the given run cache.
func WithCache(c *runcache.Cache) Option {
	return func(o *Options) { o.Cache = c }
}

// WithJournal records computed cells to (and resumes from) the journal.
func WithJournal(j *journal.Journal) Option {
	return func(o *Options) { o.Journal = j }
}

// WithProgress wires the stderr progress reporter.
func WithProgress(p *journal.Progress) Option {
	return func(o *Options) { o.Progress = p }
}

// WithBackend routes cell execution through b (nil = Local(), that is
// Cached over the cycle engine); see the Backend interface for the
// seam's contract.
func WithBackend(b Backend) Option {
	return func(o *Options) { o.Backend = b }
}

// validateBounds holds the checks shared by NewOptions and Run beyond the
// historical scale/warmup ones; kept with the options so a new field's
// option and its validation land together.
func (o Options) validateBounds() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: workers %d", o.Workers)
	}
	if o.CycleLimit < 0 {
		return fmt.Errorf("core: cycle limit %d", o.CycleLimit)
	}
	if o.SampleInterval < 0 {
		return fmt.Errorf("core: sample interval %d", o.SampleInterval)
	}
	return nil
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xeonomp/internal/branch"
	"xeonomp/internal/bus"
	"xeonomp/internal/cache"
	"xeonomp/internal/core"
	"xeonomp/internal/journal"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/tlb"
	"xeonomp/internal/trace"
)

// The isolated layer drivers time one layer's public functions at a time,
// RZBENCH-style, so a traced <layer>.self_s divided by the layer's counted
// operations can be checked against a per-operation cost measured alone.

const (
	// streamInstr is the instruction count drawn from each driver profile.
	streamInstr = 400_000
	// driverMin is the least time each driver measures for.
	driverMin = 100 * time.Millisecond
)

// driverProfiles are the streams the engine drivers replay: CG is
// memory-bound, EP compute-bound (the axes cmd/benchsnap's grid crosses).
var driverProfiles = []string{"CG", "EP"}

// drivers runs every isolated driver and returns <layer>.ns_per_op
// figures. A driver that cannot run reports nothing; the names it would
// have printed are then missing from the result.
func drivers(h harnessInput) map[string]float64 {
	out := map[string]float64{}
	if err := engineDrivers(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: engine drivers:", err)
	}
	if err := harnessDrivers(h, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: harness drivers:", err)
	}
	return out
}

// access is one data reference of a stream, with its instruction index.
type access struct {
	addr  uint64
	write bool
	at    int64
}

// repeat calls f (which performs ops operations) until driverMin has
// passed and returns nanoseconds per operation.
func repeat(ops int, f func()) float64 {
	if ops == 0 {
		return 0
	}
	n := 0
	t := time.Now()
	for n == 0 || time.Since(t) < driverMin {
		f()
		n++
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n*ops)
}

func engineDrivers(out map[string]float64) error {
	cfg := machine.PaxvilleSMP()
	var (
		gens     []*trace.Generator
		data     []access
		branches []trace.Instr
		records  int
	)
	newGens := func() error {
		gens = gens[:0]
		for i, name := range driverProfiles {
			p, err := profiles.ByName(name)
			if err != nil {
				return err
			}
			layout, err := p.Layout(uint64(i+1), 1)
			if err != nil {
				return err
			}
			g, err := p.Generator(layout, 0, 1, float64(streamInstr)/float64(p.SerialInstr), uint64(i+1))
			if err != nil {
				return err
			}
			gens = append(gens, g)
		}
		return nil
	}
	// trace.Generator.Next: generators are rebuilt outside the timed loop.
	if err := newGens(); err != nil {
		return err
	}
	var in trace.Instr
	for _, g := range gens {
		for g.Next(&in) {
			records++
			switch in.Kind {
			case trace.Load, trace.Store:
				data = append(data, access{addr: in.Addr, write: in.Kind == trace.Store, at: int64(records)})
			case trace.Branch:
				branches = append(branches, in)
			}
		}
	}
	var elapsed time.Duration
	passes := 0
	for passes == 0 || elapsed < driverMin {
		if err := newGens(); err != nil {
			return err
		}
		t := time.Now()
		for _, g := range gens {
			for g.Next(&in) {
			}
		}
		elapsed += time.Since(t)
		passes++
	}
	out["trace.ns_per_op"] = float64(elapsed.Nanoseconds()) / float64(passes*records)

	// cache.Cache.Lookup, with Fill on a miss; the misses feed the bus.
	var misses []access
	l1 := cache.New(cfg.L1D)
	for _, a := range data {
		if !l1.Lookup(a.addr, a.write).Hit {
			l1.Fill(a.addr, a.write, false)
			misses = append(misses, a)
		}
	}
	out["cache.ns_per_op"] = repeat(len(data), func() {
		c := cache.New(cfg.L1D)
		for _, a := range data {
			if !c.Lookup(a.addr, a.write).Hit {
				c.Fill(a.addr, a.write, false)
			}
		}
	})
	out["tlb.ns_per_op"] = repeat(len(data), func() {
		t := tlb.New(cfg.DTLB)
		for _, a := range data {
			t.Access(a.addr)
		}
	})
	out["branch.ns_per_op"] = repeat(len(branches), func() {
		p := branch.New(cfg.Branch)
		for _, b := range branches {
			p.Resolve(b.PC, b.Taken, b.Target)
		}
	})
	// bus.FSB.Issue: one transaction per L1D miss, at one instruction per
	// cycle.
	out["bus.ns_per_op"] = repeat(len(misses), func() {
		f := bus.NewFSB(bus.FSBConfig{Name: "fsb0", Bandwidth: cfg.FSBBandwidth, LineSize: cfg.Mem.LineSize, Freq: cfg.Freq}, bus.NewMemory(cfg.Mem))
		for _, a := range misses {
			t := bus.DemandRead
			if a.write {
				t = bus.RFO
			}
			f.Issue(a.at, t)
		}
	})
	return nil
}

// harnessDrivers times the cell-identity, run-cache and journal layers on
// the workload's own cells and payloads.
func harnessDrivers(h harnessInput, out map[string]float64) error {
	var (
		hashes   []string
		payloads [][]byte
		keys     []runcache.Key
	)
	for _, name := range h.cells {
		w, cfg, err := parseCell(name)
		if err != nil {
			return err
		}
		key := core.CacheKey(w, cfg, h.opt)
		hash, err := key.Hash()
		if err != nil {
			return err
		}
		payload, ok := h.payloads.Get(hash)
		if !ok {
			return fmt.Errorf("cell %s has no cached payload", name)
		}
		keys = append(keys, key)
		hashes = append(hashes, hash)
		payloads = append(payloads, payload)
	}
	var hashErr error
	out["runcache.hash.ns_per_op"] = repeat(len(keys), func() {
		for _, k := range keys {
			if _, err := k.Hash(); err != nil {
				hashErr = err
			}
		}
	})
	if hashErr != nil {
		return hashErr
	}
	c, err := runcache.New(0, "")
	if err != nil {
		return err
	}
	out["runcache.put.ns_per_op"] = repeat(len(hashes), func() {
		for i, hash := range hashes {
			_ = c.Put(hash, payloads[i]) // memory tier only: Put cannot fail
		}
	})
	out["runcache.get.ns_per_op"] = repeat(len(hashes), func() {
		for _, hash := range hashes {
			c.Get(hash)
		}
	})

	dir, err := workDir("journal-driver")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jn, err := journal.Open(filepath.Join(dir, "driver.jsonl"))
	if err != nil {
		return err
	}
	// Append skips keys it already holds, so every round appends new ones.
	round := 0
	var appendErr error
	out["journal.append.ns_per_op"] = repeat(len(hashes), func() {
		round++
		for i, hash := range hashes {
			if err := jn.Append(fmt.Sprintf("%s-%d", hash, round), h.cells[i], payloads[i]); err != nil {
				appendErr = err
			}
		}
	})
	return errors.Join(appendErr, jn.Close())
}

// Package sched models the OS-level placement of application threads onto
// the enabled hardware contexts. The paper uses the default Linux scheduler
// on a maxcpus-masked kernel; its observable behaviour for these workloads
// is (a) one thread per logical processor while threads <= processors, and
// (b) round-robin time slicing when oversubscribed. Placement order matters
// for multi-program runs because it decides which threads share a core and
// a chip, so the package offers the balanced default plus two alternatives
// used as ablations.
package sched

import (
	"fmt"

	"xeonomp/internal/cpu"
	"xeonomp/internal/units"
)

// Policy selects a placement strategy.
type Policy int

// Placement policies.
const (
	// Alternate interleaves the programs' threads across the context
	// enumeration (p0t0, p1t0, p0t1, ...), the effective spread the Linux
	// balancer converges to for simultaneously-started equal-size programs.
	Alternate Policy = iota
	// Block places each program's threads contiguously, so one program
	// owns the first contexts and the next program the following ones.
	Block
	// RoundRobin flattens programs in order but assigns contexts
	// round-robin even when oversubscribed (used in tests).
	RoundRobin
	// Symbiotic orders programs by resource demand and interleaves the
	// heaviest with the lightest, so Hyper-Threaded siblings get
	// complementary workloads — the scheduler direction the paper's
	// conclusion proposes. Requires per-program demand descriptors
	// (PlaceSymbiotic).
	Symbiotic
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Alternate:
		return "alternate"
	case Block:
		return "block"
	case RoundRobin:
		return "round-robin"
	case Symbiotic:
		return "symbiotic"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy is the inverse of String: it maps a policy name (the
// -policy flag and wire spelling) onto its Policy. The empty name is the
// Alternate default.
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return Alternate, nil
	}
	for _, p := range []Policy{Alternate, Block, RoundRobin, Symbiotic} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (have alternate, block, round-robin, symbiotic)", s)
}

// ProgramDemand summarizes a program's appetite for the shared resources
// that matter on this platform: sustained memory bandwidth (bytes/second at
// one thread) and the per-thread L2 cache footprint. The symbiotic policy
// pairs high-demand programs with low-demand ones.
type ProgramDemand struct {
	Bandwidth      float64
	CacheFootprint uint64
}

// score collapses a demand to a single pressure figure for ordering:
// bandwidth in GB/s plus cache footprint in MiB, equally weighted — both
// resources saturate near 1 unit on the paper's machine.
func (d ProgramDemand) score() float64 {
	return d.Bandwidth/units.GB + float64(d.CacheFootprint)/float64(units.MiB)
}

// Place assigns every thread of every program to a context. Threads beyond
// the context count share contexts by time slicing (the cpu layer's run
// queues). It returns an error when there are no contexts or no threads.
func Place(programs [][]*cpu.Thread, ctxs []*cpu.Context, p Policy) error {
	if len(ctxs) == 0 {
		return fmt.Errorf("sched: no enabled contexts")
	}
	total := 0
	for _, prog := range programs {
		total += len(prog)
	}
	if total == 0 {
		return fmt.Errorf("sched: no threads to place")
	}
	var order []*cpu.Thread
	switch p {
	case Alternate:
		for i := 0; ; i++ {
			added := false
			for _, prog := range programs {
				if i < len(prog) {
					order = append(order, prog[i])
					added = true
				}
			}
			if !added {
				break
			}
		}
	case Block, RoundRobin:
		for _, prog := range programs {
			order = append(order, prog...)
		}
	default:
		return fmt.Errorf("sched: unknown policy %v", p)
	}
	for i, t := range order {
		ctxs[i%len(ctxs)].Assign(t)
	}
	return nil
}

// PlaceSymbiotic assigns threads so that programs with heavy shared-resource
// demands share cores with light ones: programs are sorted by demand score
// and consumed alternately from the heavy and light ends while interleaving
// their threads across the context enumeration (adjacent contexts are
// Hyper-Threaded siblings on the paper's machine). demands must parallel
// programs.
func PlaceSymbiotic(programs [][]*cpu.Thread, demands []ProgramDemand, ctxs []*cpu.Context) error {
	if len(ctxs) == 0 {
		return fmt.Errorf("sched: no enabled contexts")
	}
	if len(demands) != len(programs) {
		return fmt.Errorf("sched: %d demand descriptors for %d programs", len(demands), len(programs))
	}
	total := 0
	for _, prog := range programs {
		total += len(prog)
	}
	if total == 0 {
		return fmt.Errorf("sched: no threads to place")
	}

	// Order program indices by decreasing demand.
	order := make([]int, len(programs))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && demands[order[j]].score() > demands[order[j-1]].score(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// Alternate heavy / light: h0, l0, h1, l1, ...
	paired := make([]int, 0, len(order))
	lo, hi := 0, len(order)-1
	for lo <= hi {
		paired = append(paired, order[lo])
		if lo != hi {
			paired = append(paired, order[hi])
		}
		lo++
		hi--
	}

	// Interleave the paired programs' threads across the enumeration.
	var flat []*cpu.Thread
	for i := 0; ; i++ {
		added := false
		for _, pi := range paired {
			if i < len(programs[pi]) {
				flat = append(flat, programs[pi][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	for i, t := range flat {
		ctxs[i%len(ctxs)].Assign(t)
	}
	return nil
}

// Occupancy returns, for reporting, how many threads each context received.
func Occupancy(ctxs []*cpu.Context) []int {
	out := make([]int, len(ctxs))
	for i, x := range ctxs {
		out[i] = x.QueueLen()
	}
	return out
}

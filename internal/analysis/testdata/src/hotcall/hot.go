// Package hotcall seeds hotloop's per-iteration call-overhead findings in
// directive-hot functions: a devirtualizable interface call, a hoistable
// loop-invariant map lookup, and channel operations.
package hotcall

import "fmt"

type hasher interface {
	hash(uint64) uint64
}

// xorHash is the module's only hasher implementation.
type xorHash struct{ k uint64 }

func (h xorHash) hash(v uint64) uint64 { return v ^ h.k }

// Mix dispatches through the interface although only one concrete type
// exists in the module.
//
//xeonlint:hot
func Mix(h hasher, vals []uint64) uint64 {
	acc := uint64(0)
	for _, v := range vals {
		acc ^= h.hash(v) // want `only in-module implementation`
	}
	return acc
}

// Weighted looks up the same key in the same map every iteration.
//
//xeonlint:hot
func Weighted(weights map[string]int, key string, vals []int) int {
	total := 0
	for _, v := range vals {
		total += v * weights[key] // want `loop-invariant in a hot loop`
	}
	return total
}

// Tally mutates the map under a per-iteration key: both invariance
// conditions fail, so no finding.
//
//xeonlint:hot
func Tally(counts map[string]int, keys []string) {
	for _, k := range keys {
		counts[k]++
	}
}

// Pump sends per iteration.
//
//xeonlint:hot
func Pump(out chan<- int, vals []int) {
	for _, v := range vals {
		out <- v // want `channel send in a hot loop`
	}
}

// Drain receives per iteration.
//
//xeonlint:hot
func Drain(in <-chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += <-in // want `channel receive in a hot loop`
	}
	return total
}

// Relay selects per iteration: one finding for the select, none for the
// clauses' own channel operations, while the allocation feeding the send
// is still reported.
//
//xeonlint:hot
func Relay(in <-chan int, out chan<- string, n int) {
	for i := 0; i < n; i++ {
		select { // want `select in a hot loop`
		case v := <-in:
			_ = v
		case out <- fmt.Sprintf("r%d", i): // want `fmt.Sprintf in a hot loop`
		}
	}
}

// coldMix repeats Mix without hotness: no findings.
func coldMix(h hasher, vals []uint64) uint64 {
	acc := uint64(0)
	for _, v := range vals {
		acc ^= h.hash(v)
	}
	return acc
}

var _ = coldMix

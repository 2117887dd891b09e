package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile of a traced phase, bucketed by layer.
type cpuProfile struct {
	// total is the sampled CPU time, in seconds, outside output checks.
	total float64
	// self is CPU seconds by layer bucket (see bucketOf).
	self map[string]float64
	// unattributed is the CPU time no layer bucket covers.
	unattributed float64
	// keyHash is the CPU time with runcache.Key.Hash on the stack.
	keyHash float64
	// engine splits the engine buckets' time by the cell labels
	// obs.DoCell sets: engine.cg / engine.other by benchmark,
	// engine.ht_on / engine.ht_off by configuration.
	engine map[string]float64
}

// moduleLayers maps module packages (below xeonomp/internal/) onto the
// layer buckets. Packages missing here count as unattributed.
var moduleLayers = map[string]string{
	"trace": "trace", "cpu": "cpu", "cache": "cache", "tlb": "tlb", "branch": "branch",
	"prefetch": "bus", "bus": "bus", "machine": "machine",
	"core": "core", "runcache": "runcache", "journal": "journal",
	"server": "server", "api": "api", "shard": "shard",
}

// engineLayers are the buckets of the cycle engine, which runs only
// inside machine.Run.
var engineLayers = []string{"trace", "cpu", "cache", "tlb", "branch", "bus", "machine"}

// selfBuckets lists every bucket reported as <bucket>.self_s.
var selfBuckets = []string{
	"trace", "cpu", "cache", "tlb", "branch", "bus", "machine",
	"core", "runcache", "journal", "server", "api", "api.json", "shard", "http", "runtime",
}

const keyHashFunc = "xeonomp/internal/runcache.Key.Hash"

// profiled runs f under the CPU profiler and buckets the samples.
func profiled(f func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	prof, perr := parseProfile(&buf)
	return prof, errors.Join(err, perr)
}

// pkgOf returns the package path of a symbolized Go function name, such
// as "xeonomp/internal/cache.(*Cache).Lookup" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isNet reports the packages of the HTTP and socket path.
func isNet(pkg string) bool {
	return pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") || pkg == "bufio"
}

// bucketOf attributes one sample's stack (leaf first) to a layer, "" for
// none. Go runtime work (allocation, GC, scheduling) is its own layer,
// except system calls, which belong to whoever made them. Otherwise the
// innermost module frame owns the sample, including standard-library
// code it called — JSON under the wire packages is split out as
// api.json. Stacks with no module frame on the socket path are the HTTP
// hop's.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	pkgs := make([]string, len(frames))
	syscall := false
	for i, f := range frames {
		pkgs[i] = pkgOf(f)
		syscall = syscall || pkgs[i] == "syscall"
	}
	if isRuntime(pkgs[0]) && !syscall {
		return "runtime"
	}
	for i, pkg := range pkgs {
		if pkg == "main" {
			return "" // the benchmark's own code
		}
		rest, ok := strings.CutPrefix(pkg, "xeonomp/internal/")
		if !ok {
			continue
		}
		b := moduleLayers[rest]
		if b == "api" || b == "server" || b == "shard" {
			for _, below := range pkgs[:i] {
				if below == "encoding/json" {
					return "api.json"
				}
			}
		}
		return b
	}
	for _, pkg := range pkgs {
		if isNet(pkg) {
			return "http"
		}
	}
	return ""
}

// parseProfile decodes a gzipped profile.proto CPU profile.
func parseProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []pbSample
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	prof := &cpuProfile{self: map[string]float64{}, engine: map[string]float64{}}
	engine := map[string]bool{}
	for _, l := range engineLayers {
		engine[l] = true
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		labels := map[string]string{}
		for k, v := range s.labels {
			labels[str(k)] = str(v)
		}
		if labels[checkLabel] != "" {
			continue
		}
		// The last value of a CPU sample is its CPU time in nanoseconds.
		secs := float64(s.values[len(s.values)-1]) / 1e9
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				frames = append(frames, str(funcs[fn]))
			}
		}
		prof.total += secs
		b := bucketOf(frames)
		if b == "" {
			prof.unattributed += secs
		} else {
			prof.self[b] += secs
		}
		for _, f := range frames {
			if f == keyHashFunc {
				prof.keyHash += secs
				break
			}
		}
		if engine[b] && labels["benchmark"] != "" {
			if strings.Contains("/"+labels["benchmark"]+"/", "/CG/") {
				prof.engine["engine.cg"] += secs
			} else {
				prof.engine["engine.other"] += secs
			}
			if strings.HasPrefix(labels["config"], "HT on") {
				prof.engine["engine.ht_on"] += secs
			} else {
				prof.engine["engine.ht_off"] += secs
			}
		}
	}
	return prof, nil
}

// pbSample is one decoded profile sample.
type pbSample struct {
	locs   []uint64
	values []int64
	labels map[int64]int64 // key string index -> value string index
}

func decodeSample(b []byte) (pbSample, error) {
	s := pbSample{labels: map[int64]int64{}}
	err := walk(b, func(f int, v uint64, b []byte) error {
		switch f {
		case 1:
			if b == nil {
				s.locs = append(s.locs, v)
				return nil
			}
			return packed(b, func(v uint64) { s.locs = append(s.locs, v) })
		case 2:
			if b == nil {
				s.values = append(s.values, int64(v))
				return nil
			}
			return packed(b, func(v uint64) { s.values = append(s.values, int64(v)) })
		case 3:
			var key, val int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					key = int64(v)
				case 2:
					val = int64(v)
				}
				return nil
			})
			s.labels[key] = val
			return err
		}
		return nil
	})
	return s, err
}

// walk calls fn for every field of a protobuf message: v holds varint
// and fixed-width values, b the payload of length-delimited fields (nil
// for the others).
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed field key")
		}
		msg = msg[n:]
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated bytes field")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

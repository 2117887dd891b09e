// Package unitfix seeds magic unit-conversion literals and legal uses.
package unitfix

import "unitfix/internal/units"

// Package-level declarations are scanned too, not only function bodies.
var refClockHz = 3.2 * 1e9 // want `magic conversion literal 1e9`

func toGB(bytes float64) float64 {
	return bytes / 1e9 // want `magic conversion literal 1e9`
}

func toMops(ops, secs float64) float64 {
	return ops / secs / 1_000_000 // want `magic conversion literal 1_000_000`
}

func cyclesAt(seconds float64) float64 {
	return seconds * 2.8e9 // want `magic conversion literal 2.8e9`
}

func named(bytes float64) float64 {
	return bytes / units.GB
}

func notAFactor(n int) int {
	return n + 1000
}

func powerOfTwo(n int64) int64 {
	return n * 1024
}

var _ = toGB
var _ = toMops
var _ = cyclesAt
var _ = named
var _ = notAFactor
var _ = powerOfTwo

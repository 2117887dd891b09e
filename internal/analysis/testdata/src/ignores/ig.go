// Package ig exercises the //xeonlint:ignore directive grammar: a
// suppression above the line, a suppression on the line, a stale directive
// that suppresses nothing, two malformed directives, and two suppressions
// naming retired analyzers (hotcall merged into hotloop, unitsafety into
// dimension), which must fail as unknown rather than rot silently.
package ig

//xeonlint:ignore
//xeonlint:ignore nosuch because reasons
//xeonlint:ignore hotcall retired analyzer name
//xeonlint:ignore unitsafety retired analyzer name

func checked() error { return nil }

func suppressedAbove() {
	//xeonlint:ignore errdrop the result only matters to the caller in this fixture
	checked()
}

func suppressedSameLine() {
	checked() //xeonlint:ignore errdrop recorded elsewhere in this fixture
}

func stale() error {
	//xeonlint:ignore errdrop stale directive kept for the unused-ignore test
	return checked()
}

var _ = suppressedAbove
var _ = suppressedSameLine
var _ = stale

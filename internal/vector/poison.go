package vector

import (
	"sync/atomic"

	"jsonpark/internal/variant"
)

// Poisoning is the test hook behind the batch-lifetime contract. With it on,
// every recycler (expression registers, FLATTEN's columns, a filter's
// selection) overwrites its storage with a sentinel before reusing it, so a
// consumer that kept a streamed batch past its producer's next NextBatch
// reads garbage and the parity grids catch it instead of a lucky stale value
// passing. Off (the default) it costs one atomic load per operator call.
var poisoned atomic.Bool

// SetPoison turns recycled-storage poisoning on or off. Tests only.
func SetPoison(on bool) { poisoned.Store(on) }

// Poisoned reports whether recyclers must poison before reuse.
func Poisoned() bool { return poisoned.Load() }

// PoisonValue is the sentinel written over recycled variant storage.
var PoisonValue = variant.String("\x00poisoned: read past the producer's next call")

// Poison overwrites vals' whole capacity with PoisonValue.
func Poison(vals []variant.Value) {
	vals = vals[:cap(vals)]
	for i := range vals {
		vals[i] = PoisonValue
	}
}

// PoisonSel overwrites a recycled selection's whole capacity with an
// out-of-range index, so a stale read faults instead of picking a live row.
func PoisonSel(sel []int) {
	sel = sel[:cap(sel)]
	for i := range sel {
		sel[i] = -1
	}
}

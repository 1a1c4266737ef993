package vector

import (
	"sync/atomic"

	"jsonpark/internal/variant"
)

// Poisoning is the test hook behind the batch-lifetime contract. With it on,
// every recycler (expression registers, variant and typed, FLATTEN's columns,
// a filter's selection) overwrites its storage with a sentinel before reusing it, so a
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
func Poison(vals []variant.Value) { fill(vals, PoisonValue) }

// PoisonTyped overwrites a register's whole storage: its int, float and bool
// words with sentinels and its null-bitmap words with all ones, so a stale
// read of a recycled typed vector yields values no query computes.
func PoisonTyped(t *TypedCol) {
	fill(t.ints, -0x5eed_dead_beef)
	fill(t.floats, -1.2345e300)
	fill(t.bools, true)
	fill(t.bits, ^uint64(0))
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// PoisonSel overwrites a recycled selection's whole capacity with an
// out-of-range index, so a stale read faults instead of picking a live row.
func PoisonSel(sel []int) { fill(sel, -1) }

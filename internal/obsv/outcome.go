package obsv

import (
	"context"
	"errors"
)

// Counters is one query's execution counters, declared once: the engine
// fills them (engine.Metrics embeds them), the query's outcome record
// carries them, and the query log and /metrics read them from there.
type Counters struct {
	RowsReturned     int64
	BytesScanned     int64
	PartitionsTotal  int64
	PartitionsPruned int64
	// ParallelBreakers is the number of pipeline breakers that fanned out:
	// hash aggregates whose phase 1 ran on workers (the join build and the
	// sort are sequential at every parallelism).
	ParallelBreakers int64
	// Memory governance: peak accounted bytes, and how often and how much
	// the breakers spilled to temp-file runs.
	MemPeakBytes int64
	Spills       int64
	SpillBytes   int64
	// Typed execution: typed vectors (columns and expression results) read
	// by typed kernels, and typed vectors converted to variants for an
	// operator or function that needs them; and partition data sections
	// cold-loaded from a persistent data directory.
	TypedCols    int64
	FallbackCols int64
	DiskReads    int64
	// PlanCacheHit reports that compilation was served from the query
	// cache: the query skipped parse/plan/optimize/physicalize and paid only
	// the per-run bind cost.
	PlanCacheHit bool
	// TextCacheHit reports that the plan was found under its source text,
	// so the JSONiq frontend did not run either. It implies PlanCacheHit.
	TextCacheHit bool
	// ResultCacheHit reports that the rows came from the partition-versioned
	// result cache: the query executed nothing.
	ResultCacheHit bool
}

// Statuses of a query, as the query log writes them. /metrics counts a
// timeout under "cancelled".
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusCancelled = "cancelled"
	StatusTimeout   = "timeout"
	// StatusShed marks a request refused at admission (HTTP 429): the
	// governor's tenant slots or memory pool stayed exhausted past the
	// queue timeout, so the query never compiled or executed.
	StatusShed = "shed"
)

// StatusOf maps a query's error to its status: a deadline is a timeout, a
// cancellation is cancelled, any other error is an error.
func StatusOf(err error) string {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return StatusTimeout
	case errors.Is(err, context.Canceled):
		return StatusCancelled
	}
	return StatusError
}

// QueryObservation is one finished query's outcome record. Outcome builds
// it once, when the query's trace ends; /metrics (Observer.ObserveQuery)
// and the query log read it.
type QueryObservation struct {
	Trace  *TraceData
	Status string
	Phases PhaseDurations
	Counters
}

// Outcome builds the outcome record of a query whose trace td ended with
// err, having counted c.
func Outcome(td *TraceData, err error, c Counters) QueryObservation {
	return QueryObservation{Trace: td, Status: StatusOf(err), Phases: Phases(td), Counters: c}
}

// Fixture for the ctxpoll analyzer: a loop that absorbs unbounded input —
// NextBatch on a concrete operator, Next on a spill-run reader — must poll
// cancellation every iteration. The interface call is exempt (every operator
// runs in the operator envelope, which polls), and polls resolved through a
// bound closure or a package helper count.
package ctxpoll

import (
	"context"

	"jsonpark/internal/vector"
)

type src struct{}

func (s *src) NextBatch() (*vector.Batch, error) { return nil, nil }

type reader struct{}

func (r *reader) Next() ([]byte, error) { return nil, nil }

type qctx struct{ err error }

func (c *qctx) cancelled() error { return c.err }

type batchIter interface {
	NextBatch() (*vector.Batch, error)
}

// True positive: the drain never looks at cancellation.
func drainNoPoll(s *src) error {
	for { // want `loop absorbs batches via s.NextBatch without polling cancellation`
		b, err := s.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// True positive: a spill-run replay loop with no poll.
func replayNoPoll(r *reader) (int, error) {
	n := 0
	for { // want `loop absorbs batches via r.Next without polling cancellation`
		rec, err := r.Next()
		if err != nil {
			return n, err
		}
		if rec == nil {
			return n, nil
		}
		n += len(rec)
	}
}

// Compliant: polls the engine context each iteration.
func drainPolls(ctx *qctx, s *src) error {
	for {
		if err := ctx.cancelled(); err != nil {
			return err
		}
		b, err := s.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// Compliant: ctx.Err() on a context.Context is a poll.
func drainStdCtx(ctx context.Context, s *src) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := s.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// Compliant: the poll goes through a bound closure — the parallel workers'
// checkCancel pattern, resolved through the def-use bindings.
func drainClosure(ctx *qctx, s *src) error {
	checkCancel := func() bool { return ctx.cancelled() != nil }
	for {
		if checkCancel() {
			return nil
		}
		b, err := s.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

func pollHelper(ctx *qctx) error { return ctx.cancelled() }

// Compliant: the poll goes through a package-level helper that polls.
func drainHelper(ctx *qctx, s *src) error {
	for {
		if err := pollHelper(ctx); err != nil {
			return err
		}
		b, err := s.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// Compliant: NextBatch through the iterator interface reaches the operator
// envelope; the interface call is the poll.
func drainIface(it batchIter) error {
	for {
		b, err := it.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

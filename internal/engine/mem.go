package engine

import "sync"

// Memory governance. One memAccountant per query charges the state every
// pipeline breaker retains — pre-aggregation tables, the join build side,
// buffered sort input — against the engine's WithMemLimit budget. Charging
// is deliberately conservative: operators charge the deep byte size of the
// rows they retain (an upper bound on what the tables built from those rows
// hold), so a query never under-reports. Crossing the limit does not fail
// the query; it flips the charging operator into its spill path (spill.go),
// which is byte-identical to the in-memory path at any trigger point — the
// accountant only decides *when* operators spill, never *what* they output.
type memAccountant struct {
	limit int64 // 0 = unlimited per-query budget
	// pool, when set, is the server-wide Governor memory pool this query
	// also draws from: every charge is mirrored into the pool, and pool
	// pressure triggers spills exactly like the per-query limit.
	pool       *Governor
	mu         sync.Mutex
	used       int64
	peak       int64
	spills     int64
	spillBytes int64
}

// enabled reports whether any limit — per-query or pool — is in force. With
// neither, operators skip charging entirely and the unlimited path stays
// zero-overhead.
func (a *memAccountant) enabled() bool { return a != nil && (a.limit > 0 || a.pool != nil) }

// charge adds n retained bytes and reports whether the query is now over
// budget — its own limit or the shared pool's, whichever trips first. Safe
// for concurrent use (parallel breaker workers share one accountant).
func (a *memAccountant) charge(n int64) bool {
	if !a.enabled() || n == 0 {
		return false
	}
	a.mu.Lock()
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	over := a.limit > 0 && a.used > a.limit
	a.mu.Unlock()
	if !a.pool.reserve(n) {
		over = true
	}
	return over
}

// release returns n previously charged bytes to the budget (and the pool).
func (a *memAccountant) release(n int64) {
	if !a.enabled() || n == 0 {
		return
	}
	a.mu.Lock()
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
	a.mu.Unlock()
	a.pool.releaseMem(n)
}

// drain returns any residual charged bytes to the shared pool after the
// query's iterators have closed — a backstop so an operator that died
// without releasing can never leak pool capacity across queries.
func (a *memAccountant) drain() {
	if a == nil || a.pool == nil {
		return
	}
	a.mu.Lock()
	n := a.used
	a.used = 0
	a.mu.Unlock()
	if n > 0 {
		a.pool.releaseMem(n)
	}
}

// noteSpill records one spill of b on-disk bytes.
func (a *memAccountant) noteSpill(b int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.spills++
	a.spillBytes += b
	a.mu.Unlock()
}

// snapshot returns (peak, spills, spillBytes) for the metrics copy-out.
func (a *memAccountant) snapshot() (int64, int64, int64) {
	if a == nil {
		return 0, 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak, a.spills, a.spillBytes
}

// opMem is one operator's view of the shared accountant. It keeps what the
// operator holds, for release on spill or Close, in the operator's record —
// the live gauge of ProgressSnapshot — along with the peak and spill counts
// EXPLAIN ANALYZE reports. Safe for concurrent use: a fanned-out aggregate's
// workers charge one handle, an exchange's workers another.
type opMem struct {
	ctx *execContext
	st  *OpStats
}

func (c *execContext) opMemFor(n Node) *opMem {
	return &opMem{ctx: c, st: c.statsFor(n)}
}

// enabled reports whether this query runs under a memory limit.
func (m *opMem) enabled() bool { return m.ctx.acct.enabled() }

// charge records n retained bytes against the query budget and reports
// whether the operator should spill. The accountant is charged before the
// operator's own count grows (and released after it shrinks), so the
// operator's peak never exceeds the query's.
func (m *opMem) charge(n int64) bool {
	over := m.ctx.acct.charge(n)
	held := m.st.held.Add(n)
	for peak := m.st.memPeak.Load(); held > peak; peak = m.st.memPeak.Load() {
		if m.st.memPeak.CompareAndSwap(peak, held) {
			break
		}
	}
	return over
}

// release returns n of the bytes this operator holds: one span's table when
// it spills, one morsel's batches when the exchange hands them out.
func (m *opMem) release(n int64) {
	m.st.held.Add(-n)
	m.ctx.acct.release(n)
}

// releaseAll returns everything this operator still holds; called when the
// retained state moves to disk or the operator closes.
func (m *opMem) releaseAll() { m.release(m.st.held.Load()) }

// noteSpill records one spill of b on-disk bytes against the query and the
// operator's record.
func (m *opMem) noteSpill(b int64) {
	m.ctx.acct.noteSpill(b)
	m.ctx.mu.Lock()
	m.st.Spills++
	m.st.SpillBytes += b
	m.ctx.mu.Unlock()
}

package engine

// Server-level resource governance. One Governor arbitrates between every
// concurrent query on an engine: a single global memory pool that each
// query's memAccountant draws from (so total retained breaker state across
// all queries is bounded, not just per-query), and an admission gate that
// bounds per-tenant concurrency. When slots or the pool are exhausted,
// Admit queues the caller briefly and then sheds it with a structured
// AdmissionError carrying a Retry-After hint — the server maps that to
// HTTP 429. Shedding is always preferred over unbounded queueing: the wait
// is capped by QueueTimeout and the queue itself by QueueDepth.
//
// Accounting flow:
//
//	operator charge ─▶ memAccountant (per query) ─▶ Governor pool (global)
//	                     │ over per-query limit?      │ over global limit?
//	                     └───────────── either ──────▶ operator spills
//
// Pool pressure never fails a running query — exactly like the per-query
// limit, crossing it flips charging operators into their byte-identical
// spill paths. Only *new* work is refused, at admission.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant charged when a request names none.
const DefaultTenant = "default"

// GovernorConfig sizes a Governor.
type GovernorConfig struct {
	// MemLimit caps total accounted breaker-state bytes across all queries;
	// 0 disables pool accounting (admission still applies).
	MemLimit int64
	// TenantSlots caps concurrently admitted queries per tenant; 0 means
	// unlimited concurrency (admission then gates only on the memory pool).
	TenantSlots int
	// QueueTimeout bounds how long Admit blocks before shedding. 0 means
	// one second.
	QueueTimeout time.Duration
	// QueueDepth bounds per-tenant waiters; excess requests shed
	// immediately. 0 means 4×TenantSlots (16 when TenantSlots is 0).
	QueueDepth int
}

// AdmissionError reports a request shed by the Governor. The server maps it
// to HTTP 429 with a Retry-After header.
type AdmissionError struct {
	Tenant     string
	RetryAfter time.Duration
	Reason     string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("admission: %s (tenant %q, retry after %s)", e.Reason, e.Tenant, e.RetryAfter)
}

// Governor is the shared memory pool plus admission gate. The zero value is
// not usable; construct with NewGovernor. A nil *Governor is safe wherever
// methods are nil-tolerant (reserve, releaseMem, memLimited).
type Governor struct {
	cfg GovernorConfig

	mu      sync.Mutex
	cond    *sync.Cond
	memUsed int64
	memPeak int64
	active  map[string]int
	waiting map[string]int

	admitted atomic.Int64
	shed     atomic.Int64
}

// NewGovernor builds a Governor, applying config defaults.
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.MemLimit < 0 {
		cfg.MemLimit = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.QueueDepth <= 0 {
		if cfg.TenantSlots > 0 {
			cfg.QueueDepth = 4 * cfg.TenantSlots
		} else {
			cfg.QueueDepth = 16
		}
	}
	g := &Governor{
		cfg:     cfg,
		active:  make(map[string]int),
		waiting: make(map[string]int),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// memLimited reports whether the global memory pool is in force.
func (g *Governor) memLimited() bool { return g != nil && g.cfg.MemLimit > 0 }

// blockedLocked reports why tenant cannot be admitted right now, or "".
func (g *Governor) blockedLocked(tenant string) string {
	if g.cfg.TenantSlots > 0 && g.active[tenant] >= g.cfg.TenantSlots {
		return "tenant concurrency slots exhausted"
	}
	if g.cfg.MemLimit > 0 && g.memUsed >= g.cfg.MemLimit {
		return "global memory pool exhausted"
	}
	return ""
}

// Admit gates one query for tenant ("" means DefaultTenant). It returns a
// release func the caller must invoke exactly once when the query finishes
// (idempotent — extra calls are no-ops). When slots or the pool stay
// exhausted past QueueTimeout — or the per-tenant queue is already
// QueueDepth deep — Admit returns an *AdmissionError. A ctx cancel or
// deadline while queued returns ctx.Err() so the server's existing 499/504
// mapping applies unchanged.
func (g *Governor) Admit(ctx context.Context, tenant string) (func(), error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	deadline := time.Now().Add(g.cfg.QueueTimeout)
	// Both the shed timer and ctx cancellation wake every waiter; each
	// re-checks its own deadline/ctx after cond.Wait.
	timer := time.AfterFunc(g.cfg.QueueTimeout, g.broadcast)
	defer timer.Stop()
	stop := context.AfterFunc(ctx, g.broadcast)
	defer stop()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting[tenant] >= g.cfg.QueueDepth {
		g.shed.Add(1)
		return nil, &AdmissionError{Tenant: tenant, RetryAfter: g.cfg.QueueTimeout, Reason: "admission queue full"}
	}
	g.waiting[tenant]++
	defer func() {
		if g.waiting[tenant]--; g.waiting[tenant] <= 0 {
			delete(g.waiting, tenant)
		}
	}()
	for {
		reason := g.blockedLocked(tenant)
		if reason == "" {
			g.active[tenant]++
			g.admitted.Add(1)
			var once sync.Once
			return func() { once.Do(func() { g.exit(tenant) }) }, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			g.shed.Add(1)
			return nil, &AdmissionError{Tenant: tenant, RetryAfter: g.cfg.QueueTimeout, Reason: reason}
		}
		g.cond.Wait()
	}
}

// exit returns tenant's admission slot and wakes waiters.
func (g *Governor) exit(tenant string) {
	g.mu.Lock()
	if g.active[tenant]--; g.active[tenant] <= 0 {
		delete(g.active, tenant)
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *Governor) broadcast() { g.cond.Broadcast() }

// reserve draws n bytes from the global pool on behalf of one query's
// accountant and reports whether the pool is still within its limit. Like
// memAccountant.charge, crossing the limit never refuses the bytes — it
// tells the charging operator to spill.
func (g *Governor) reserve(n int64) bool {
	if !g.memLimited() || n == 0 {
		return true
	}
	g.mu.Lock()
	g.memUsed += n
	if g.memUsed > g.memPeak {
		g.memPeak = g.memUsed
	}
	over := g.memUsed > g.cfg.MemLimit
	g.mu.Unlock()
	return !over
}

// releaseMem returns n bytes to the pool and wakes admission waiters
// blocked on pool pressure.
func (g *Governor) releaseMem(n int64) {
	if !g.memLimited() || n == 0 {
		return
	}
	g.mu.Lock()
	g.memUsed -= n
	if g.memUsed < 0 {
		g.memUsed = 0
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// GovernorSnapshot is a point-in-time view of the governor for /debug and
// metrics.
type GovernorSnapshot struct {
	MemUsedBytes  int64          `json:"mem_used_bytes"`
	MemPeakBytes  int64          `json:"mem_peak_bytes"`
	MemLimitBytes int64          `json:"mem_limit_bytes"`
	TenantSlots   int            `json:"tenant_slots"`
	QueueTimeout  string         `json:"queue_timeout"`
	Active        int            `json:"active"`
	Waiting       int            `json:"waiting"`
	ActiveByTen   map[string]int `json:"active_by_tenant,omitempty"`
	WaitingByTen  map[string]int `json:"waiting_by_tenant,omitempty"`
	AdmittedTotal int64          `json:"admitted_total"`
	ShedTotal     int64          `json:"shed_total"`
}

// Snapshot captures current pool usage, per-tenant occupancy, and the
// cumulative admitted/shed counters.
func (g *Governor) Snapshot() GovernorSnapshot {
	g.mu.Lock()
	s := GovernorSnapshot{
		MemUsedBytes:  g.memUsed,
		MemPeakBytes:  g.memPeak,
		MemLimitBytes: g.cfg.MemLimit,
		TenantSlots:   g.cfg.TenantSlots,
		QueueTimeout:  g.cfg.QueueTimeout.String(),
	}
	if len(g.active) > 0 {
		s.ActiveByTen = make(map[string]int, len(g.active))
		for t, n := range g.active {
			s.ActiveByTen[t] = n
			s.Active += n
		}
	}
	if len(g.waiting) > 0 {
		s.WaitingByTen = make(map[string]int, len(g.waiting))
		for t, n := range g.waiting {
			s.WaitingByTen[t] = n
			s.Waiting += n
		}
	}
	g.mu.Unlock()
	s.AdmittedTotal = g.admitted.Load()
	s.ShedTotal = g.shed.Load()
	return s
}

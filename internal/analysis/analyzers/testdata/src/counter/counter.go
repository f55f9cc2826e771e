// Package counter is the atomicmix golden fixture: it reproduces the PR-3
// metrics.Counter bug (atomic writes, plain reads) and its post-migration
// variant, alongside the fixed shapes that must stay silent.
package counter

import "sync/atomic"

// Counter is the historical bug verbatim: incremented through sync/atomic
// but read with a bare load, which races and can read torn state.
type Counter struct {
	v int64
}

// Inc updates atomically.
func (c *Counter) Inc() {
	atomic.AddInt64(&c.v, 1)
}

// Value reads plainly — the PR-3 race.
func (c *Counter) Value() int64 {
	return c.v // want `atomically`
}

// FixedCounter is the shipped fix: the field type forces the atomic API.
type FixedCounter struct {
	v atomic.Int64
}

// Inc updates atomically.
func (c *FixedCounter) Inc() { c.v.Add(1) }

// Value loads atomically.
func (c *FixedCounter) Value() int64 { return c.v.Load() }

// HalfFixed moved to atomic.Int64 but still writes the value plainly on
// one path — the same family, post-migration.
type HalfFixed struct {
	v atomic.Int64
}

// Inc updates atomically.
func (h *HalfFixed) Inc() { h.v.Add(1) }

// Reset overwrites the atomic value wholesale.
func (h *HalfFixed) Reset() {
	h.v = atomic.Int64{} // want `atomically`
}

// Plain-only fields are fine: no atomic access anywhere.
type Plain struct{ n int64 }

// Inc is single-threaded by contract.
func (p *Plain) Inc() { p.n++ }

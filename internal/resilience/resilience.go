// Package resilience is the dependency-free fault-handling kit the
// serving tier is built on: exponential backoff with jitter, per-replica
// circuit breakers (closed → open → half-open with bounded probe
// admission), an active health prober that ejects and readmits targets,
// and a concurrency-limited load-shed gate. The routing tier
// (internal/route) composes these around every forward; qosrmad's own
// handlers use the gate to answer 503 + Retry-After before queues grow
// unbounded; cmd/loadgen reuses the backoff for wire reconnects.
//
// Everything here is deliberately mechanism, not policy: no package-level
// state, no background goroutines except the prober's (explicitly
// started and stopped), and every time- or randomness-dependent decision
// accepts an injected clock or RNG so tests — and the seeded chaos wall
// in internal/chaos — stay deterministic.
package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff computes retry delays: Base doubling (Factor) per attempt up
// to Max, with a Jitter fraction of each delay randomized so synchronized
// clients de-correlate. The zero value selects the defaults below.
type Backoff struct {
	// Base is the delay before the first retry (default 10ms).
	Base time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter in [0,1] is the fraction of each delay drawn uniformly at
	// random: delay = d*(1-Jitter) + d*Jitter*rnd (default 0.5). A nil
	// rnd disables jitter regardless.
	Jitter float64
}

// withDefaults fills unset fields.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	return b
}

// Delay returns the sleep before retry attempt (attempt 0 = the delay
// after the first failure). rnd, when non-nil, supplies uniform [0,1)
// draws for jitter — pass a seeded source for reproducible schedules.
func (b Backoff) Delay(attempt int, rnd func() float64) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if rnd != nil && b.Jitter > 0 {
		d = d*(1-b.Jitter) + d*b.Jitter*rnd()
	}
	return time.Duration(d)
}

// Sleep blocks for the attempt's backoff delay or until ctx is done,
// returning ctx.Err() in the latter case.
func (b Backoff) Sleep(ctx context.Context, attempt int, rnd func() float64) error {
	t := time.NewTimer(b.Delay(attempt, rnd))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BreakerState is a circuit breaker's admission state.
type BreakerState int32

const (
	// BreakerClosed admits every request (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of concurrent probes; one
	// success closes the breaker, one failure re-opens it.
	BreakerHalfOpen
)

// String names the state for metrics and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerOptions configures a Breaker. The zero value selects defaults.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long an open breaker refuses before admitting
	// half-open probes (default 1s).
	Cooldown time.Duration
	// HalfOpenProbes bounds the concurrent requests admitted while
	// half-open (default 1).
	HalfOpenProbes int
	// Clock is the time source (default time.Now) — injectable for tests.
	Clock func() time.Time
	// OnStateChange, when set, observes every transition (called with the
	// breaker's mutex held; keep it cheap — a counter increment).
	OnStateChange func(from, to BreakerState)
}

// WithDefaults returns o with every unset field at its default.
func (o BreakerOptions) WithDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = 1
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Breaker is a per-target circuit breaker. Call Allow before an attempt;
// when it admits, report the outcome with exactly one Success or Failure
// call, or hand the admission back with Release when the attempt proved
// nothing (the half-open probe accounting depends on it). Safe for
// concurrent use.
type Breaker struct {
	opt BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probes   int       // in-flight half-open probes
}

// NewBreaker builds a breaker with the options' defaults applied.
func NewBreaker(opt BreakerOptions) *Breaker {
	return &Breaker{opt: opt.WithDefaults()}
}

// transition moves the breaker to a new state, notifying the observer.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.opt.OnStateChange != nil {
		b.opt.OnStateChange(from, to)
	}
}

// Allow reports whether an attempt may proceed. An open breaker whose
// cooldown has elapsed becomes half-open and admits up to HalfOpenProbes
// concurrent probes.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.opt.Clock().Sub(b.openedAt) < b.opt.Cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probes = 1
		return true
	default: // half-open
		if b.probes >= b.opt.HalfOpenProbes {
			return false
		}
		b.probes++
		return true
	}
}

// Success reports a completed attempt. Any success fully closes the
// breaker (the replica answered; stale failure history is discarded).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
	b.fails = 0
	b.transition(BreakerClosed)
}

// Failure reports a failed attempt: the Threshold'th consecutive failure
// opens the breaker, and any half-open failure re-opens it for a fresh
// cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probes = 0
		b.openedAt = b.opt.Clock()
		b.transition(BreakerOpen)
	case BreakerClosed:
		b.fails++
		if b.fails >= b.opt.Threshold {
			b.fails = 0
			b.openedAt = b.opt.Clock()
			b.transition(BreakerOpen)
		}
	default: // already open: refresh nothing — cooldown runs from openedAt
	}
}

// Release hands back an admission without evidence either way (the
// caller gave up before the target could answer): a half-open probe slot
// is returned, and the state and consecutive-failure count stay as they
// were.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// State returns the current admission state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Gate is a concurrency-limited load-shed gate: TryAcquire admits up to
// the configured limit of concurrent holders and refuses beyond it, so a
// server answers "overloaded" immediately instead of queueing without
// bound. A nil *Gate admits everything (the disabled configuration).
type Gate struct {
	sem  chan struct{}
	shed atomic.Uint64
}

// NewGate builds a gate admitting limit concurrent holders; limit <= 0
// returns nil (unlimited).
func NewGate(limit int) *Gate {
	if limit <= 0 {
		return nil
	}
	return &Gate{sem: make(chan struct{}, limit)}
}

// TryAcquire attempts to enter the gate without blocking. A refusal is
// counted as a shed.
func (g *Gate) TryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		g.shed.Add(1)
		return false
	}
}

// Release exits the gate (pair with a successful TryAcquire).
func (g *Gate) Release() {
	if g != nil {
		<-g.sem
	}
}

// Inflight returns the current holder count.
func (g *Gate) Inflight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// Shed returns how many acquisitions were refused.
func (g *Gate) Shed() uint64 {
	if g == nil {
		return 0
	}
	return g.shed.Load()
}

// Limit returns the gate's capacity (0 when disabled).
func (g *Gate) Limit() int {
	if g == nil {
		return 0
	}
	return cap(g.sem)
}

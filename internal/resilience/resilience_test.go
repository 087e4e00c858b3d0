package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestBackoffGrowthAndCap: delays grow geometrically from Base and clamp
// at Max; without an RNG the schedule is exact.
func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if d := b.Delay(i, nil); d != w*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", i, d, w*time.Millisecond)
		}
	}
}

// TestBackoffJitterBounds: with an injected RNG, jittered delays stay in
// [d*(1-J), d] and are reproducible for a fixed draw sequence.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	for _, r := range []float64{0, 0.25, 0.5, 0.999} {
		d := b.Delay(0, func() float64 { return r })
		lo, hi := 50*time.Millisecond, 100*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("draw %g: delay %v outside [%v, %v]", r, d, lo, hi)
		}
	}
}

// TestBackoffSleepCancelled: Sleep honours context cancellation.
func TestBackoffSleepCancelled(t *testing.T) {
	b := Backoff{Base: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Sleep(ctx, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep returned %v, want context.Canceled", err)
	}
}

// fakeClock is an injectable breaker clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBreakerLifecycle walks the full state machine: closed → open at
// the failure threshold → half-open after the cooldown (bounded probes)
// → closed on probe success; and half-open failure re-opens.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var transitions []string
	b := NewBreaker(BreakerOptions{
		Threshold: 3, Cooldown: time.Second, HalfOpenProbes: 1, Clock: clk.Now,
		OnStateChange: func(from, to BreakerState) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	})

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after 2 failures (threshold 3)", b.State())
	}
	b.Allow()
	b.Failure() // third consecutive failure: opens
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted before cooldown")
	}

	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown admit, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe (HalfOpenProbes=1)")
	}
	b.Failure() // probe failed: re-open for a fresh cooldown
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}

	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("re-opened breaker refused the next probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Success()

	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d: %s, want %s (all: %v)", i, transitions[i], want[i], transitions)
		}
	}
}

// TestBreakerRelease: a released admission is no evidence. Closed, it
// leaves the consecutive-failure count where it was; half-open, it
// returns the probe slot without closing or re-opening the breaker.
func TestBreakerRelease(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(BreakerOptions{Threshold: 2, Cooldown: time.Second, HalfOpenProbes: 1, Clock: clk.Now})

	b.Allow()
	b.Failure()
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Release()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after releases, want closed", b.State())
	}
	b.Allow()
	b.Failure() // second consecutive failure: releases neither reset nor added to the count
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures around releases, want open", b.State())
	}

	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe (HalfOpenProbes=1)")
	}
	b.Release()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after releasing the probe, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("released probe slot was not handed back")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}
}

// TestBreakerSuccessResetsFailureCount: interleaved successes keep a
// closed breaker closed — only *consecutive* failures open it.
func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreaker(BreakerOptions{Threshold: 2})
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Failure()
		b.Allow()
		b.Success()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", b.State())
	}
}

// TestGateShedsAtLimit: the gate admits exactly limit concurrent holders
// and counts refusals.
func TestGateShedsAtLimit(t *testing.T) {
	g := NewGate(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("gate refused within its limit")
	}
	if g.TryAcquire() {
		t.Fatal("gate admitted beyond its limit")
	}
	if g.Inflight() != 2 || g.Shed() != 1 || g.Limit() != 2 {
		t.Fatalf("inflight=%d shed=%d limit=%d", g.Inflight(), g.Shed(), g.Limit())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("gate refused after a release")
	}
	g.Release()
	g.Release()
}

// TestProberEjectsAndReadmits: FailThreshold consecutive failures eject;
// SuccessThreshold successes readmit; transitions are observed.
func TestProberEjectsAndReadmits(t *testing.T) {
	var mu sync.Mutex
	down := map[int]bool{}
	probe := func(_ context.Context, i int) error {
		mu.Lock()
		defer mu.Unlock()
		if down[i] {
			return errors.New("down")
		}
		return nil
	}
	var events []string
	p := NewProber(3, probe, ProberOptions{
		Interval: time.Hour, FailThreshold: 2, SuccessThreshold: 1,
	}, func(target int, healthy bool) {
		mu.Lock()
		if healthy {
			events = append(events, "up")
		} else {
			events = append(events, "down")
		}
		mu.Unlock()
		_ = target
	})
	defer p.Stop()

	for i := 0; i < 3; i++ {
		if !p.Healthy(i) {
			t.Fatalf("target %d not healthy at start", i)
		}
	}
	mu.Lock()
	down[1] = true
	mu.Unlock()
	p.RunNow()
	if !p.Healthy(1) {
		t.Fatal("ejected after one failure (threshold 2)")
	}
	p.RunNow()
	if p.Healthy(1) {
		t.Fatal("still healthy after threshold failures")
	}
	if p.Healthy(0) != true || p.Healthy(2) != true {
		t.Fatal("healthy targets ejected")
	}

	mu.Lock()
	down[1] = false
	mu.Unlock()
	p.RunNow()
	if !p.Healthy(1) {
		t.Fatal("not readmitted after a successful probe")
	}
	ej, re := p.Stats()
	if ej != 1 || re != 1 {
		t.Fatalf("stats ejections=%d readmits=%d, want 1/1", ej, re)
	}
	mu.Lock()
	got := append([]string(nil), events...)
	mu.Unlock()
	if len(got) != 2 || got[0] != "down" || got[1] != "up" {
		t.Fatalf("transition events %v, want [down up]", got)
	}
}

// TestProberPeriodic: the started loop ejects a failing target without
// manual rounds.
func TestProberPeriodic(t *testing.T) {
	p := NewProber(1, func(context.Context, int) error { return errors.New("down") },
		ProberOptions{Interval: 5 * time.Millisecond, FailThreshold: 1}, nil)
	p.Start()
	defer p.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for p.Healthy(0) {
		if time.Now().After(deadline) {
			t.Fatal("periodic prober never ejected a permanently failing target")
		}
		time.Sleep(time.Millisecond)
	}
}

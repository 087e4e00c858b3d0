package ops

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryExposition pins the Prometheus text rendering: family
// ordering, HELP/TYPE headers, label escaping, histogram cumulation.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_total", "trailing family", "")
	for range 3 {
		c.Inc()
	}
	r.CounterFunc("aa_total", "leading family", Labels("shard", "0"), func() float64 { return 7 })
	r.GaugeFunc("mid_gauge", "a gauge", Labels("k", `va"l`), func() float64 { return 1.5 })
	r.InfoFunc("build_info", "version payload", func() string { return Labels("hash", "abc") })
	h := r.Histogram("lat_seconds", "latency", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	wantLines := []string{
		`aa_total{shard="0"} 7`,
		`build_info{hash="abc"} 1`,
		`mid_gauge{k="va\"l"} 1.5`,
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 6.05`,
		`lat_seconds_count 4`,
		`zz_total 3`,
		`# TYPE lat_seconds histogram`,
		`# HELP aa_total leading family`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") && !strings.HasSuffix(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families come out sorted by name.
	if ia, iz := strings.Index(out, "aa_total"), strings.Index(out, "zz_total"); ia > iz {
		t.Errorf("families not sorted:\n%s", out)
	}
}

// TestRegistryHandler: the registry serves itself over HTTP with the
// exposition content type.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestHistogramLabeledBuckets: a labeled histogram merges le into the
// existing label set.
func TestHistogramLabeledBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sz", "", Labels("shard", "2"), []float64{1})
	h.Observe(0.5)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `sz_bucket{shard="2",le="1"} 1`) {
		t.Fatalf("labeled bucket malformed:\n%s", b.String())
	}
}

// TestHistogramConcurrent: concurrent observation is safe and loses no
// samples (run with -race).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per*0.25 {
		t.Fatalf("sum %g", h.Sum())
	}
}

// TestNilRegistry: a nil registry hands out working instruments and
// renders nothing — instrumented code needs no registry plumbed through.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("n_total", "", "")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter broken")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q", b.String())
	}
}

// TestDuplicateSeriesPanics: re-registering a series is a wiring bug.
func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", "")
}

// TestCheckerRunNowAndLast: manual audits store the latest report, and
// Pass reflects mismatches and errors.
func TestCheckerRunNowAndLast(t *testing.T) {
	calls := 0
	c := NewChecker(func(samples int) AuditReport {
		calls++
		if samples != 4 {
			t.Fatalf("samples %d, want 4", samples)
		}
		return AuditReport{Sampled: samples, Mismatches: calls - 1}
	}, 0, 4)
	if _, ok := c.Last(); ok {
		t.Fatal("fresh checker has a report")
	}
	if r := c.RunNow(0); !r.Pass() {
		t.Fatalf("first audit failed: %+v", r)
	}
	if r := c.RunNow(0); r.Pass() {
		t.Fatal("mismatching audit passed")
	}
	last, ok := c.Last()
	if !ok || last.Mismatches != 1 {
		t.Fatalf("last report wrong: %+v ok=%v", last, ok)
	}
	if (AuditReport{Error: "boom"}).Pass() {
		t.Fatal("errored audit passed")
	}
}

// TestCheckerPeriodic: the periodic goroutine audits on the interval and
// Stop is clean and idempotent.
func TestCheckerPeriodic(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	c := NewChecker(func(int) AuditReport {
		mu.Lock()
		calls++
		mu.Unlock()
		return AuditReport{Sampled: 1}
	}, time.Millisecond, 1)
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := calls
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checker never fired")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if _, ok := c.Last(); !ok {
		t.Fatal("no report after periodic audits")
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosrma/internal/resilience"
	"qosrma/internal/service"
	"qosrma/internal/wire"
)

// TestRingPickAvailable: with every group available the health-aware
// pick IS the plain pick (placement unchanged in the healthy fleet);
// with one group down only that group's keys move, and they come back
// on heal.
func TestRingPickAvailable(t *testing.T) {
	r, err := New(testGroups(4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(5000)
	allUp := func(int) bool { return true }
	for _, key := range keys {
		if got, want := r.PickAvailableHash(Hash(key), allUp), r.Pick(key); got != want {
			t.Fatalf("key %q: all-available pick %d != plain pick %d", key, got, want)
		}
	}

	down := 2
	avail := func(g int) bool { return g != down }
	moved := 0
	for _, key := range keys {
		owner := r.Pick(key)
		got := r.PickAvailableHash(Hash(key), avail)
		if owner != down {
			if got != owner {
				t.Fatalf("key %q owned by healthy group %d moved to %d", key, owner, got)
			}
			continue
		}
		if got == down {
			t.Fatalf("key %q still routed to the down group", key)
		}
		moved++
		// Heal: the key returns to its owner.
		if back := r.PickAvailableHash(Hash(key), allUp); back != owner {
			t.Fatalf("key %q did not return to group %d after heal", key, owner)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the down group — test keys degenerate")
	}

	// Nothing available: the true owner is returned (the forward fails
	// there; placement must not become random).
	for _, key := range keys[:100] {
		if got := r.PickAvailableHash(Hash(key), func(int) bool { return false }); got != r.Pick(key) {
			t.Fatalf("key %q: all-down pick %d != owner %d", key, got, r.Pick(key))
		}
	}
}

// TestParseGroupsWireAddrs: the "httpaddr|wireaddr" replica syntax.
func TestParseGroupsWireAddrs(t *testing.T) {
	groups, err := ParseGroups("10.0.0.1:7743|10.0.0.1:7744,10.0.0.2:7743;10.0.1.1:7743")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("parsed %d groups, want 2", len(groups))
	}
	g0 := groups[0]
	if len(g0.Addrs) != 2 || g0.Addrs[0] != "10.0.0.1:7743" {
		t.Fatalf("group 0 HTTP addrs %v", g0.Addrs)
	}
	if len(g0.WireAddrs) != 2 || g0.WireAddrs[0] != "10.0.0.1:7744" || g0.WireAddrs[1] != "" {
		t.Fatalf("group 0 wire addrs %v", g0.WireAddrs)
	}
	if groups[1].WireAddrs != nil {
		t.Fatalf("group 1 without wire syntax got wire addrs %v", groups[1].WireAddrs)
	}
	if _, err := ParseGroups("10.0.0.1:7743|"); err == nil {
		t.Fatal("empty wire address parsed")
	}
}

// truncatingBackend answers /v1/decide with a Content-Length larger
// than the bytes it writes, then slams the connection — the classic
// reset-mid-body. The proxy must treat it as a replica failure and
// retry, not relay a truncated 502.
func truncatingBackend(t *testing.T) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"results": [`)) //nolint:errcheck // truncation is the point
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestProxyRetriesTruncatedBody: a connection reset mid-response-body
// fails over to the next replica instead of answering a truncated body.
func TestProxyRetriesTruncatedBody(t *testing.T) {
	var seen sync.Map
	trunc, hits := truncatingBackend(t)
	live := fakeBackend(t, "live", &seen)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{backendAddr(trunc), backendAddr(live)}},
	}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	sawTrunc := false
	for i := 0; i < 8; i++ {
		q := proxyQueries(8)[i]
		body, _ := json.Marshal(service.DecideRequest{DecideQuery: q})
		resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: proxy relayed a truncated body: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s) despite a live replica", i, resp.StatusCode, payload)
		}
		var out service.DecideResponse
		if err := json.Unmarshal(payload, &out); err != nil {
			t.Fatalf("request %d: merged body does not parse: %v", i, err)
		}
		sawTrunc = sawTrunc || hits.Load() > 0
	}
	if !sawTrunc {
		t.Fatal("the truncating replica was never tried — rotation is broken")
	}
}

// tierCodec drives single-query decides through a Proxy on one codec and
// reports what a client saw as (status, Retry-After). The wire codec maps
// a DecideResponse to 200 and an Error frame with ErrCodeUnavailable that
// echoes the request's sequence number to 503, with the frame standing in
// for Retry-After; any other answer fails the test.
type tierCodec struct {
	name   string
	prefix string // the codec's counter prefix
	decide func(t *testing.T) (int, string)
}

// tierCodecs serves p on both codecs: JSON on an httptest server, whose
// URL it returns, and the binary protocol on a loopback listener.
func tierCodecs(t *testing.T, p *Proxy) (string, []tierCodec) {
	t.Helper()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)
	var seq uint32
	return proxy.URL, []tierCodec{
		{name: "json", prefix: "qosrmad_route_", decide: func(t *testing.T) (int, string) {
			t.Helper()
			body, _ := json.Marshal(service.DecideRequest{DecideQuery: proxyQueries(1)[0]})
			resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
			resp.Body.Close()
			return resp.StatusCode, resp.Header.Get("Retry-After")
		}},
		{name: "wire", prefix: "qosrmad_route_wire_", decide: func(t *testing.T) (int, string) {
			t.Helper()
			c, err := net.Dial("tcp", wp.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			seq++
			req := wireTestRequest(1)
			req.Seq = seq
			if _, err := c.Write(wire.AppendDecideRequest(nil, req)); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := wire.NewReader(c).Next()
			if err != nil {
				t.Fatal(err)
			}
			if typ == wire.TypeDecideResponse {
				return http.StatusOK, ""
			}
			if typ != wire.TypeError {
				t.Fatalf("wire proxy answered frame type %#x", typ)
			}
			got, code, msg, err := wire.ParseError(payload)
			if err != nil || code != wire.ErrCodeUnavailable || got != seq {
				t.Fatalf("wire error frame seq %d code %d %q (%v), want seq %d code %d",
					got, code, msg, err, seq, wire.ErrCodeUnavailable)
			}
			return http.StatusServiceUnavailable, "wire"
		}},
	}
}

// TestProxyBreakerShortCircuits: once the dead replica's breaker opens,
// an all-dead group answers unavailable immediately (503 + Retry-After
// on JSON, an Unavailable error frame on wire; no replica admitted)
// instead of dialing the corpse forever.
func TestProxyBreakerShortCircuits(t *testing.T) {
	for i, name := range []string{"json", "wire"} {
		t.Run(name, func(t *testing.T) {
			ring, _ := New([]Backend{{Name: "g0", Addrs: []string{"127.0.0.1:1"}, WireAddrs: []string{"127.0.0.1:1"}}}, 0)
			p := NewProxyWithOptions(ring, nil, Options{
				Retries: -1, // one attempt per request: breaker state is observable per request
				Breaker: resilience.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
			})
			defer p.Close()
			url, codecs := tierCodecs(t, p)
			codec := codecs[i]
			opened := `qosrmad_route_breaker_transitions_total{to="open"}`

			code, _ := codec.decide(t)
			want := http.StatusBadGateway // transport failure
			if name == "wire" {
				want = http.StatusServiceUnavailable // the wire codec has one unavailable code
			}
			if code != want {
				t.Fatalf("first request answered %d, want %d", code, want)
			}
			if got := scrapeCounter(t, url, opened); got != 1 {
				t.Fatalf("%v breakers opened after one failed request, want 1", got)
			}
			failed := scrapeCounter(t, url, codec.prefix+"attempt_failures_total")
			code, retryAfter := codec.decide(t)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("second request answered %d, want 503 (breaker open, no replica)", code)
			}
			if retryAfter == "" {
				t.Fatal("503 without Retry-After")
			}
			if got := scrapeCounter(t, url, codec.prefix+"attempt_failures_total"); got != failed {
				t.Fatalf("open breaker still let an attempt through: attempt failures %v → %v", failed, got)
			}
			if got := scrapeCounter(t, url, opened); got != 1 {
				t.Fatalf("breaker transitions to open = %v, want 1", got)
			}
		})
	}
}

// TestProxyAllReplicasDown: with every replica ejected by the prober, a
// decide answers unavailable on both codecs (503 + Retry-After on JSON,
// an Unavailable error frame echoing the sequence number on wire) after
// spending its retry budget on backoff, and each request counts one
// exhausted forward and Retries retries on its own codec's counters.
func TestProxyAllReplicasDown(t *testing.T) {
	dead := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{dead(), dead()}, WireAddrs: []string{dead(), dead()}},
		{Name: "g1", Addrs: []string{dead()}, WireAddrs: []string{dead()}},
	}, 0)
	const retries = 2
	p := NewProxyWithOptions(ring, nil, Options{
		Retries:       retries,
		ProbeInterval: time.Hour, // rounds driven manually via ProbeNow
		Prober:        resilience.ProberOptions{FailThreshold: 1, SuccessThreshold: 1},
	})
	defer p.Close()
	url, codecs := tierCodecs(t, p)
	p.ProbeNow()
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			exhausted := scrapeCounter(t, url, codec.prefix+"exhausted_total")
			retried := scrapeCounter(t, url, codec.prefix+"retries_total")
			const requests = 2
			for i := 0; i < requests; i++ {
				code, retryAfter := codec.decide(t)
				if code != http.StatusServiceUnavailable || retryAfter == "" {
					t.Fatalf("request %d answered %d (Retry-After %q), want 503 with Retry-After", i, code, retryAfter)
				}
			}
			if got := scrapeCounter(t, url, codec.prefix+"exhausted_total") - exhausted; got != requests {
				t.Fatalf("%sexhausted_total moved by %v, want %d", codec.prefix, got, requests)
			}
			if got := scrapeCounter(t, url, codec.prefix+"retries_total") - retried; got != requests*retries {
				t.Fatalf("%sretries_total moved by %v, want %d", codec.prefix, got, requests*retries)
			}
		})
	}
}

// TestProxyHealthzDeepAndSpill: /v1/healthz is answered by the proxy
// itself; a group whose only replica dies turns it degraded (503) once
// the prober notices, while decide traffic spills to the surviving
// group and keeps answering 200.
func TestProxyHealthzDeepAndSpill(t *testing.T) {
	var seen sync.Map
	b0 := fakeBackend(t, "b0", &seen)
	b1 := fakeBackend(t, "b1", &seen)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{backendAddr(b0)}},
		{Name: "g1", Addrs: []string{backendAddr(b1)}},
	}, 0)
	p := NewProxyWithOptions(ring, nil, Options{
		ProbeInterval: time.Hour, // rounds driven manually via ProbeNow
		Prober:        resilience.ProberOptions{FailThreshold: 1, SuccessThreshold: 1},
	})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	getHealth := func() (int, string) {
		resp, err := http.Get(proxy.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Status
	}

	// fakeBackend has no /v1/healthz — register reachability via probe
	// failure only after the process is actually gone, so the healthy
	// assertion must run before any probe round ejects on 404.
	if code, status := getHealth(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet answered %d/%s", code, status)
	}

	// Kill group g1's only replica and let the prober notice.
	b1.Close()
	p.ProbeNow()
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, status := getHealth()
		if code == http.StatusServiceUnavailable && status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still %d/%s after killing group g1", code, status)
		}
		p.ProbeNow()
		time.Sleep(10 * time.Millisecond)
	}

	// Decide traffic spills to g0 and still answers.
	queries := proxyQueries(32)
	body, _ := json.Marshal(service.DecideRequest{Queries: queries})
	resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded fleet answered decide with %d — spill failed", resp.StatusCode)
	}
	var out service.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("spilled decide merged %d results for %d queries", len(out.Results), len(queries))
	}
	for i, a := range out.Results {
		if !a.Decided || a.Settings[0].Size != "b0" {
			t.Fatalf("query %d answered by %+v, want survivor b0", i, a)
		}
	}
}

// slowBackend answers /v1/decide after delay, or gives up when the
// forward is cancelled first.
func slowBackend(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain for reuse
		select {
		case <-time.After(delay):
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"result":{"decided":false}}`)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// postDecideWithin posts one decide through url and returns the status,
// or 0 when the client's own timeout fires first.
func postDecideWithin(t *testing.T, url string, timeout time.Duration) int {
	t.Helper()
	body, _ := json.Marshal(service.DecideRequest{DecideQuery: proxyQueries(1)[0]})
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post(url+"/v1/decide", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
	resp.Body.Close()
	return resp.StatusCode
}

// TestClientGiveUpSparesReplica: clients that time out before a slow but
// healthy replica answers are not evidence against it. Their forwards
// count no attempt failure and no exhausted forward, the breaker stays
// closed, and the next patient client is answered instead of getting a
// 503 for the breaker's cooldown.
func TestClientGiveUpSparesReplica(t *testing.T) {
	slow := slowBackend(t, 200*time.Millisecond)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{backendAddr(slow)}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	var served atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.ServeHTTP(w, r)
		served.Add(1)
	}))
	t.Cleanup(proxy.Close)

	const impatient = 5
	for i := 0; i < impatient; i++ {
		if code := postDecideWithin(t, proxy.URL, 20*time.Millisecond); code != 0 {
			t.Fatalf("impatient client %d got %d before the replica could answer", i, code)
		}
	}
	// Wait until every abandoned forward has finished its accounting.
	for deadline := time.Now().Add(5 * time.Second); served.Load() < impatient; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d abandoned forwards finished", served.Load(), impatient)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !p.replicaAvailable(0) {
		t.Fatal("clients giving up opened a healthy replica's breaker")
	}
	if _, _, exhausted := p.Stats(); exhausted != 0 {
		t.Fatalf("%d abandoned forwards counted as exhausted", exhausted)
	}
	if got := scrapeCounter(t, proxy.URL, "qosrmad_route_attempt_failures_total"); got != 0 {
		t.Fatalf("%v abandoned attempts counted as replica failures", got)
	}
	if code := postDecideWithin(t, proxy.URL, 5*time.Second); code != http.StatusOK {
		t.Fatalf("patient client answered %d after impatient ones gave up, want 200", code)
	}
}

// TestAttemptTimeoutOpensBreaker: a replica slower than AttemptTimeout
// is a failing replica, unlike a client that gives up: the expiry is an
// attempt failure and opens the breaker.
func TestAttemptTimeoutOpensBreaker(t *testing.T) {
	slow := slowBackend(t, 200*time.Millisecond)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{backendAddr(slow)}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{
		AttemptTimeout: 20 * time.Millisecond,
		Retries:        -1,
		Breaker:        resilience.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
	})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	if code := postDecideWithin(t, proxy.URL, 5*time.Second); code != http.StatusBadGateway {
		t.Fatalf("timed-out attempt answered %d, want 502", code)
	}
	if p.replicaAvailable(0) {
		t.Fatal("a replica slower than AttemptTimeout kept its breaker closed")
	}
	if _, _, exhausted := p.Stats(); exhausted != 1 {
		t.Fatalf("exhausted forwards = %d, want 1", exhausted)
	}
	if got := scrapeCounter(t, proxy.URL, "qosrmad_route_attempt_failures_total"); got != 1 {
		t.Fatalf("attempt failures = %v, want 1", got)
	}
}

// restartableBackend is a minimal fake replica that can be killed and
// brought back on the same address — the shape of a kill -9'd process
// under a supervisor.
type restartableBackend struct {
	t    *testing.T
	addr string
	srv  *http.Server
}

func newRestartableBackend(t *testing.T) *restartableBackend {
	t.Helper()
	b := &restartableBackend{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.start(ln)
	t.Cleanup(func() { b.srv.Close() })
	return b
}

func (b *restartableBackend) start(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/decide", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain for reuse
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"result":{"decided":false}}`)
	})
	b.srv = &http.Server{Handler: mux}
	go b.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
}

func (b *restartableBackend) kill() { b.srv.Close() }

func (b *restartableBackend) restart() {
	b.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", b.addr)
		if err == nil {
			b.start(ln)
			return
		}
		if time.Now().After(deadline) {
			b.t.Fatalf("rebinding %s: %v", b.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProbeClosesOpenBreaker: a breaker opened by live traffic just
// before the prober ejects the dying replica must not stay open after
// the replica heals. The pick loop never offers an unavailable replica
// an attempt, so the breaker's own half-open path can never run — only
// the passing health probe can close it. Regression test for the
// readmission deadlock the multi-process chaos drill exposed.
func TestProbeClosesOpenBreaker(t *testing.T) {
	b := newRestartableBackend(t)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{b.addr}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{
		Retries:       -1, // one attempt per request: failures reach the breaker fast
		Breaker:       resilience.BreakerOptions{Threshold: 1, Cooldown: time.Hour},
		ProbeInterval: time.Hour, // rounds driven manually via ProbeNow
		Prober:        resilience.ProberOptions{FailThreshold: 1, SuccessThreshold: 1},
	})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	post := func() int {
		body, _ := json.Marshal(service.DecideRequest{DecideQuery: proxyQueries(1)[0]})
		resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("healthy replica answered %d", code)
	}

	// Kill. Live traffic opens the breaker (threshold 1) before any
	// probe round has run — the drill's exact interleaving.
	b.kill()
	if code := post(); code == http.StatusOK {
		t.Fatal("decide answered 200 against a dead replica")
	}
	if p.replicaAvailable(0) {
		t.Fatal("replica still available after the breaker opened")
	}
	p.ProbeNow() // the prober ejects it too

	// Heal. The hour-long cooldown proves it is the passing probe, not
	// a cooldown lapse, that closes the breaker.
	b.restart()
	p.ProbeNow()
	if !p.replicaAvailable(0) {
		t.Fatal("replica not back in rotation after a passing probe — breaker stuck open")
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("healed replica answered %d", code)
	}
}

// TestProxyMetricsLocal: /metrics is the routing tier's own registry,
// not a forwarded backend page.
func TestProxyMetricsLocal(t *testing.T) {
	var seen sync.Map
	b0 := fakeBackend(t, "b0", &seen)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{backendAddr(b0)}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	resp, err := http.Get(proxy.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		"qosrmad_route_requests_total",
		"qosrmad_route_retries_total",
		"qosrmad_route_breaker_transitions_total",
		"qosrmad_route_replica_available",
	} {
		if !strings.Contains(string(page), series) {
			t.Fatalf("metrics page missing %s:\n%s", series, page)
		}
	}
}

// fakeWireBackend is a minimal wire-protocol decision server: Hello is
// answered with a fixed Meta, and every decide query is answered with a
// per-core signature (Size = backend id, Freq = bench id, Ways = phase)
// so merge alignment is checkable. unavailable makes it answer every
// decide with an Error frame code Unavailable — a draining backend. Each
// connection reuses its frame and answer scratch, so a warm exchange
// allocates nothing on the backend's side.
func fakeWireBackend(t *testing.T, id uint8, unavailable bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	meta := wire.Meta{DBHash: 42, NCores: 2, Benches: []wire.MetaBench{
		{ID: 1, Phases: 16, Name: "mcf"}, {ID: 2, Phases: 16, Name: "lbm"},
		{ID: 3, Phases: 16, Name: "milc"}, {ID: 4, Phases: 16, Name: "gcc"},
	}}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := wire.NewReader(c)
				var (
					req  wire.DecideRequest
					resp wire.DecideResponse
					out  []byte
				)
				for {
					typ, payload, err := r.Next()
					if err != nil {
						return
					}
					switch typ {
					case wire.TypeHello:
						out = wire.AppendMeta(out[:0], &meta)
					case wire.TypeDecideRequest:
						if err := wire.ParseDecideRequest(payload, &req); err != nil {
							out = wire.AppendError(out[:0], req.Seq, wire.ErrCodeMalformed, err.Error())
							break
						}
						if unavailable {
							out = wire.AppendError(out[:0], req.Seq, wire.ErrCodeUnavailable, "draining")
							break
						}
						n, count := int(req.NCores), req.Count()
						resp.Seq, resp.NCores = req.Seq, req.NCores
						if cap(resp.Decided) < count || cap(resp.Settings) < count*n {
							resp.Decided, resp.Settings = make([]bool, count), make([]wire.Setting, count*n)
						}
						resp.Decided, resp.Settings = resp.Decided[:count], resp.Settings[:count*n]
						for i := 0; i < count; i++ {
							resp.Decided[i] = true
							for ci := 0; ci < n; ci++ {
								a := req.Apps[i*n+ci]
								resp.Settings[i*n+ci] = wire.Setting{
									Size: id, Freq: uint8(a.Bench), Ways: uint8(a.Phase)}
							}
						}
						out = wire.AppendDecideResponse(out[:0], &resp)
					default:
						out = wire.AppendError(out[:0], 0, wire.ErrCodeUnsupported, "unexpected frame")
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// wireDecide sends one DecideRequest through conn and returns the
// parsed answer (failing the test on an Error frame).
func wireDecide(t *testing.T, c net.Conn, r *wire.Reader, req *wire.DecideRequest) wire.DecideResponse {
	t.Helper()
	frame := wire.AppendDecideRequest(nil, req)
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ == wire.TypeError {
		_, code, msg, _ := wire.ParseError(payload)
		t.Fatalf("wire proxy answered error code %d: %s", code, msg)
	}
	if typ != wire.TypeDecideResponse {
		t.Fatalf("wire proxy answered frame type %#x", typ)
	}
	var resp wire.DecideResponse
	if err := wire.ParseDecideResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// wireTestRequest builds a micro-batch spanning many routing keys.
func wireTestRequest(n int) *wire.DecideRequest {
	req := &wire.DecideRequest{
		Seq: 7, Scheme: 3, Model: 2, Flags: wire.FlagSlackUniform,
		NCores: 2, Slack: 0.2,
	}
	for i := 0; i < n; i++ {
		req.Apps = append(req.Apps,
			wire.App{Bench: uint16(1 + i%4), Phase: uint16(i % 9)},
			wire.App{Bench: uint16(1 + (i+1)%4), Phase: uint16(i % 7)})
	}
	return req
}

// TestWireProxySplitsAndMerges: the binary protocol is split by the
// same ring, forwarded to the owning groups' wire listeners, and merged
// in request order with per-query answers intact.
func TestWireProxySplitsAndMerges(t *testing.T) {
	w0 := fakeWireBackend(t, 10, false)
	w1 := fakeWireBackend(t, 20, false)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{"10.255.0.1:1"}, WireAddrs: []string{w0}},
		{Name: "g1", Addrs: []string{"10.255.0.2:1"}, WireAddrs: []string{w1}},
	}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)

	c, err := net.Dial("tcp", wp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := wire.NewReader(c)

	// Hello must answer the backends' Meta.
	if _, err := c.Write(wire.AppendHello(nil)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := r.Next()
	if err != nil || typ != wire.TypeMeta {
		t.Fatalf("Hello answered type %#x err %v, want Meta", typ, err)
	}
	var meta wire.Meta
	if err := wire.ParseMeta(payload, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.DBHash != 42 || len(meta.Benches) != 4 {
		t.Fatalf("relayed meta %+v", meta)
	}

	req := wireTestRequest(64)
	resp := wireDecide(t, c, r, req)
	if resp.Seq != req.Seq {
		t.Fatalf("response seq %d, want %d", resp.Seq, req.Seq)
	}
	if len(resp.Decided) != req.Count() {
		t.Fatalf("merged %d results for %d queries", len(resp.Decided), req.Count())
	}
	owners := map[uint8]bool{}
	n := int(req.NCores)
	for i := 0; i < req.Count(); i++ {
		if !resp.Decided[i] {
			t.Fatalf("query %d undecided", i)
		}
		for ci := 0; ci < n; ci++ {
			a, s := req.Apps[i*n+ci], resp.Settings[i*n+ci]
			if s.Freq != uint8(a.Bench) || s.Ways != uint8(a.Phase) {
				t.Fatalf("query %d core %d: setting %+v does not match app %+v (merge misaligned)", i, ci, s, a)
			}
		}
		owners[resp.Settings[i*n].Size] = true
	}
	if len(owners) < 2 {
		t.Fatalf("all wire queries landed on %v — the split path was never exercised", owners)
	}
	requests, splits, failures := wp.requests.Value(), wp.splits.Value(), wp.exhausted.Value()
	if requests == 0 || splits == 0 {
		t.Fatalf("wire counters requests=%d splits=%d", requests, splits)
	}
	if failures != 0 {
		t.Fatalf("%d wire forwards exhausted against healthy backends", failures)
	}
}

// TestWireProxyFailover: a dead wire replica is failed over, and a
// replica answering drain goaway (Error code Unavailable) hands the
// request to its sibling — the drain path clients never see.
func TestWireProxyFailover(t *testing.T) {
	live := fakeWireBackend(t, 10, false)
	draining := fakeWireBackend(t, 20, true)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{"10.255.0.1:1", "10.255.0.2:1", "10.255.0.3:1"},
			WireAddrs: []string{"127.0.0.1:1", draining, live}},
	}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)

	c, err := net.Dial("tcp", wp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := wire.NewReader(c)
	for i := 0; i < 6; i++ {
		req := wireTestRequest(4)
		req.Seq = uint32(100 + i)
		resp := wireDecide(t, c, r, req)
		if resp.Seq != req.Seq || len(resp.Decided) != req.Count() {
			t.Fatalf("request %d: seq %d count %d", i, resp.Seq, len(resp.Decided))
		}
		for ci := range resp.Settings {
			if resp.Settings[ci].Size != 10 {
				t.Fatalf("request %d answered by backend %d, want live 10", i, resp.Settings[ci].Size)
			}
		}
	}
}

// helloCountingBackend is a stub wire replica that counts the Hello
// frames it receives. While up is false it answers every frame with an
// Unavailable error, as a replica that is down would fail it; while up it
// answers Hello with a Meta and every decide query as decided.
func helloCountingBackend(t *testing.T, up *atomic.Bool, hellos *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	meta := wire.Meta{DBHash: 42, NCores: 2, Benches: []wire.MetaBench{{ID: 1, Phases: 16, Name: "mcf"}}}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := wire.NewReader(c)
				var (
					req wire.DecideRequest
					out []byte
				)
				for {
					typ, payload, err := r.Next()
					if err != nil {
						return
					}
					if typ == wire.TypeHello {
						hellos.Add(1)
					}
					switch {
					case !up.Load():
						out = wire.AppendError(out[:0], 0, wire.ErrCodeUnavailable, "down")
					case typ == wire.TypeHello:
						out = wire.AppendMeta(out[:0], &meta)
					case wire.ParseDecideRequest(payload, &req) == nil:
						out = wire.AppendDecideResponse(out[:0], &wire.DecideResponse{
							Seq: req.Seq, NCores: req.NCores,
							Decided:  make([]bool, req.Count()),
							Settings: make([]wire.Setting, len(req.Apps)),
						})
					default:
						out = wire.AppendError(out[:0], req.Seq, wire.ErrCodeMalformed, "bad frame")
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestWireMetaSweepRemembered: while every wire replica is down, the
// first wire decide sweeps them all with a Hello and fails, and later
// decides and client Hellos reuse that failure until the wire breakers'
// open cooldown has passed instead of each sweeping again. Once a
// replica is back and the cooldown has passed, the next decide publishes
// its Meta.
func TestWireMetaSweepRemembered(t *testing.T) {
	var (
		up     atomic.Bool
		hellos atomic.Int64
		clock  atomic.Int64 // nanoseconds past the epoch
	)
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	const cooldown = time.Second
	ring, _ := New([]Backend{{
		Name:      "g0",
		Addrs:     []string{"10.255.0.1:1", "10.255.0.2:1"},
		WireAddrs: []string{helloCountingBackend(t, &up, &hellos), helloCountingBackend(t, &up, &hellos)},
	}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{
		Retries: -1,
		// Breakers that never open: every sweep reaches every replica.
		Breaker: resilience.BreakerOptions{Threshold: 1 << 20, Cooldown: cooldown, Clock: now},
	})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)
	c, err := net.Dial("tcp", wp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := wire.NewReader(c)
	exchange := func(frame []byte) byte {
		t.Helper()
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		typ, _, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	decide := wire.AppendDecideRequest(nil, wireTestRequest(1))

	for i := 0; i < 5; i++ {
		if typ := exchange(decide); typ != wire.TypeError {
			t.Fatalf("decide %d with every replica down answered frame type %#x", i, typ)
		}
	}
	if got := hellos.Load(); got != 2 {
		t.Fatalf("5 decides with both replicas down sent %d Hellos, want 2 (one sweep)", got)
	}
	if typ := exchange(wire.AppendHello(nil)); typ != wire.TypeError || hellos.Load() != 2 {
		t.Fatalf("client Hello within the cooldown answered %#x after %d backend Hellos, want an error and no sweep",
			typ, hellos.Load())
	}

	up.Store(true)
	if typ := exchange(decide); typ != wire.TypeDecideResponse || hellos.Load() != 2 {
		t.Fatalf("decide within the cooldown answered %#x after %d backend Hellos, want an answer routed without a sweep",
			typ, hellos.Load())
	}
	clock.Add(int64(cooldown))
	if typ := exchange(decide); typ != wire.TypeDecideResponse || hellos.Load() != 3 {
		t.Fatalf("decide after the cooldown answered %#x after %d backend Hellos, want an answer and one more Hello",
			typ, hellos.Load())
	}
	if typ := exchange(wire.AppendHello(nil)); typ != wire.TypeMeta {
		t.Fatalf("client Hello after the sweep answered %#x, want the published Meta", typ)
	}
	if typ := exchange(decide); typ != wire.TypeDecideResponse || hellos.Load() != 3 {
		t.Fatalf("decide with Meta published answered %#x after %d backend Hellos, want no further sweep",
			typ, hellos.Load())
	}
}

// TestWireForwardAllocs pins the warm wire forward at zero allocations:
// splitting, the failover core and its per-attempt callback, the pooled
// round trip and the merge. The fake backends reuse their scratch, so
// the count is the tier's alone.
func TestWireForwardAllocs(t *testing.T) {
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{"10.255.0.1:1"}, WireAddrs: []string{fakeWireBackend(t, 10, false)}},
		{Name: "g1", Addrs: []string{"10.255.0.2:1"}, WireAddrs: []string{fakeWireBackend(t, 20, false)}},
	}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)
	for _, tc := range []struct {
		name    string
		queries int
		split   bool
	}{
		{"one-query", 1, false},
		{"64-query-split", 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req wire.DecideRequest
			payload := wire.AppendDecideRequest(nil, wireTestRequest(tc.queries))[wire.HeaderSize:]
			if err := wire.ParseDecideRequest(payload, &req); err != nil {
				t.Fatal(err)
			}
			m := mergeState{groups: make([][]int, len(p.groups))}
			var out []byte
			splits0 := wp.splits.Value()
			for i := 0; i < 3; i++ { // warm: Meta, pooled connections, scratch
				out = wp.handleDecide(out[:0], payload, &req, &m)
			}
			if typ, _, err := wire.NewReader(bytes.NewReader(out)).Next(); err != nil || typ != wire.TypeDecideResponse {
				t.Fatalf("warm forward answered frame type %#x (%v)", typ, err)
			}
			if splits := wp.splits.Value(); (splits > splits0) != tc.split {
				t.Fatalf("split = %v, want %v", splits > splits0, tc.split)
			}
			if got := testing.AllocsPerRun(100, func() { out = wp.handleDecide(out[:0], payload, &req, &m) }); got != 0 {
				t.Fatalf("warm %d-query wire forward allocated %.1f times, want 0", tc.queries, got)
			}
		})
	}
}

// TestTierMetricCatalog: the qosrmad_route_* series a tier with the wire
// proxy attached exposes are exactly the rows of the "Tier metrics"
// table in docs/operations.md, in both directions, so a rename or a new
// series cannot land without its documentation (perfbench reads these
// names too).
func TestTierMetricCatalog(t *testing.T) {
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{"10.255.0.1:1"}, WireAddrs: []string{"10.255.0.1:2"}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{})
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ServeWire(ln)
	var page bytes.Buffer
	p.reg.WritePrometheus(&page)
	exposed := map[string]bool{}
	for _, line := range strings.Split(page.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "qosrmad_route_") {
			exposed[f[2]] = true
		}
	}

	doc, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n### Tier metrics\n")
	if !ok {
		t.Fatal(`docs/operations.md has no "### Tier metrics" section`)
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if name, ok := strings.CutPrefix(line, "| `qosrmad_route_"); ok {
			name, _, _ = strings.Cut(name, "`")
			documented["qosrmad_route_"+name] = true
		}
	}
	if len(exposed) == 0 || len(documented) == 0 {
		t.Fatalf("exposed %d route series, documented %d", len(exposed), len(documented))
	}
	for name := range exposed {
		if !documented[name] {
			t.Errorf("%s is exposed but missing from the Tier metrics table", name)
		}
	}
	for name := range documented {
		if !exposed[name] {
			t.Errorf("%s is documented but not exposed", name)
		}
	}
}

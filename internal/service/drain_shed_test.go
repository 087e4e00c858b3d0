// Robustness tests for the two new server-side behaviors: graceful drain
// of the binary port (in-flight frames answered, goaway farewell, wireWG
// wait in Shutdown) and the decide/score load-shed gate.
package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

// TestWireDrainGoaway: Shutdown drains the binary port — the open
// connection receives a goaway Error frame (code Unavailable) instead of
// a bare reset, the connection then closes, new dials are refused, and
// Shutdown itself completes (wireWG does not leak).
func TestWireDrainGoaway(t *testing.T) {
	srv, _, addr := wireServer(t, Options{Shards: 2})
	cl := dialWire(t, addr)
	cl.send(t, wire.AppendHello(nil))
	if typ, _ := cl.next(t); typ != wire.TypeMeta {
		t.Fatalf("hello answered frame type %#x, want Meta", typ)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	typ, payload := cl.next(t)
	if typ != wire.TypeError {
		t.Fatalf("drain sent frame type %#x, want Error (goaway)", typ)
	}
	_, code, msg, err := wire.ParseError(payload)
	if err != nil {
		t.Fatalf("parse goaway: %v", err)
	}
	if code != wire.ErrCodeUnavailable || !strings.Contains(msg, "goaway") {
		t.Fatalf("goaway frame code %d msg %q", code, msg)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, _, err := cl.r.Next(); err == nil {
		t.Fatal("connection still open after goaway")
	}
	if got := srv.wire.goaways.Load(); got == 0 {
		t.Fatal("goaway counter did not move")
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("wire dial succeeded after drain")
	}
}

// TestWireDrainAnswersInFlightFrame: a DecideRequest sent just before the
// drain is answered (bit-for-bit a normal response) before the goaway
// arrives — draining finishes work it has accepted rather than dropping
// it.
func TestWireDrainAnswersInFlightFrame(t *testing.T) {
	srv, _, addr := wireServer(t, Options{Shards: 2})
	_, wireReqs := wireTrace(t, srv, 97, 1)

	cl := dialWire(t, addr)
	cl.send(t, wire.AppendDecideRequest(nil, &wireReqs[0]))
	// Wait until the serve loop has decoded the frame, so the drain below
	// provably starts with the request in flight (not still in a socket
	// buffer, where an immediate read deadline would discard it).
	waitFor(t, "frame decoded", func() bool { return srv.wire.frames.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	// Exactly two frames arrive, in order: the answer, then the goaway.
	typ, payload := cl.next(t)
	if typ != wire.TypeDecideResponse {
		if typ == wire.TypeError {
			_, code, msg, _ := wire.ParseError(payload)
			t.Fatalf("in-flight frame answered Error code %d %q, want DecideResponse", code, msg)
		}
		t.Fatalf("in-flight frame answered type %#x, want DecideResponse", typ)
	}
	var resp wire.DecideResponse
	if err := wire.ParseDecideResponse(payload, &resp); err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if resp.Seq != wireReqs[0].Seq || len(resp.Decided) != wireReqs[0].Count() {
		t.Fatalf("response seq %d decided %d, want seq %d decided %d",
			resp.Seq, len(resp.Decided), wireReqs[0].Seq, wireReqs[0].Count())
	}
	if typ, _ := cl.next(t); typ != wire.TypeError {
		t.Fatalf("second frame type %#x, want Error (goaway)", typ)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWireFrameAnsweredWhileDraining isolates the window the test above
// can only race into: with the draining flag set (Shutdown's first step)
// but the wire drain not yet begun, an HTTP decide is refused with 503
// while a wire frame the server has read is still answered.
func TestWireFrameAnsweredWhileDraining(t *testing.T) {
	srv, url, addr := wireServer(t, Options{Shards: 2})
	jsonReqs, wireReqs := wireTrace(t, srv, 97, 1)
	cl := dialWire(t, addr)
	srv.draining.Store(true)
	if code := postJSON(t, url+"/v1/decide", &jsonReqs[0], nil); code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP decide while draining answered %d, want 503", code)
	}
	cl.send(t, wire.AppendDecideRequest(nil, &wireReqs[0]))
	if typ, payload := cl.next(t); typ != wire.TypeDecideResponse {
		_, code, msg, _ := wire.ParseError(payload)
		t.Fatalf("wire frame while draining answered type %#x (code %d %q), want DecideResponse", typ, code, msg)
	}
}

// TestDecideShedsAtMaxInflight: with MaxInflight 1 and one request parked
// inside the handler (held open by an unfinished body), a second decide is
// refused with the shed signature (503 + Retry-After) and the shed counter
// moves; once the slot frees, requests are served again.
func TestDecideShedsAtMaxInflight(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1, MaxInflight: 1})
	rng := stats.NewRNG(stats.SeedFrom(31, "service/shed-test"))
	q := queryFor(db, rng, "rm2", 0.1)

	// Park a request inside handleDecide: headers promise a body that
	// never finishes, so the JSON decoder blocks while the gate slot is
	// held.
	raw, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "POST /v1/decide HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{")
	waitFor(t, "gate occupied", func() bool { return srv.gate.Inflight() == 1 })

	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Apps: db.BenchNames()[:1]}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("score while full: status %d, want 503", code)
	}
	if got := srv.gate.Shed(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}

	// Free the slot and the same request is served normally.
	raw.Close()
	waitFor(t, "gate released", func() bool { return srv.gate.Inflight() == 0 })
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("decide after release: status %d", code)
	}
}

// waitFor polls cond (50µs cadence) until it holds or a 5s budget lapses.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

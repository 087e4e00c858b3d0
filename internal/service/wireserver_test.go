package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

// wireServer starts a Server with a binary listener and returns the
// server, its HTTP test URL and the wire address.
func wireServer(t testing.TB, opt Options) (*Server, string, string) {
	t.Helper()
	srv, ts := testServer(t, opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // exits nil on Close
	return srv, ts.URL, ln.Addr().String()
}

// wireClient is a test-side connection to the binary port.
type wireClient struct {
	c net.Conn
	r *wire.Reader
}

func dialWire(t testing.TB, addr string) *wireClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &wireClient{c: c, r: wire.NewReader(c)}
}

func (w *wireClient) send(t testing.TB, frame []byte) {
	t.Helper()
	if _, err := w.c.Write(frame); err != nil {
		t.Fatalf("write frame: %v", err)
	}
}

func (w *wireClient) next(t testing.TB) (byte, []byte) {
	t.Helper()
	typ, payload, err := w.r.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return typ, payload
}

// wireTrace builds the deterministic cross-codec workload: count query
// batches drawn from the loadgen trace stream, cycling schemes and slack
// shapes so every manager-configuration path is crossed. Each batch is
// returned in both codecs' request forms, semantically identical.
func wireTrace(t testing.TB, srv *Server, seed uint64, count int) ([]DecideRequest, []wire.DecideRequest) {
	t.Helper()
	db := srv.snap.Load().db
	n := db.Sys.NumCores
	names := db.BenchNames()
	schemes := []string{"static", "dvfs", "rm1", "rm2", "rm3", "ucp"}
	rng := stats.NewRNG(stats.SeedFrom(seed, "loadgen/queries"))
	jsonReqs := make([]DecideRequest, count)
	wireReqs := make([]wire.DecideRequest, count)
	for i := range jsonReqs {
		scheme := schemes[i%len(schemes)]
		schemeID, err := core.ParseScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		slack := 0.0
		if i%3 == 1 {
			slack = 0.1
		}
		var slacks []float64
		if i%3 == 2 {
			slacks = make([]float64, n)
			for c := range slacks {
				slacks[c] = 0.05 * float64(c)
			}
		}
		batch := 1 + rng.Intn(4)
		jq := make([]DecideQuery, batch)
		var apps []wire.App
		for b := 0; b < batch; b++ {
			aq := make([]AppQuery, n)
			for c := 0; c < n; c++ {
				name := names[rng.Intn(len(names))]
				phase := rng.Intn(db.Analysis(name).NumPhases)
				aq[c] = AppQuery{Bench: name, Phase: phase}
				id, ok := db.BenchIDOf(name)
				if !ok {
					t.Fatalf("unknown bench %q", name)
				}
				apps = append(apps, wire.App{Bench: uint16(id), Phase: uint16(phase)})
			}
			jq[b] = DecideQuery{Scheme: scheme, Slack: slack, Slacks: slacks, Apps: aq}
		}
		jsonReqs[i] = DecideRequest{Queries: jq}
		wr := wire.DecideRequest{
			Seq:    uint32(i),
			Scheme: uint8(schemeID),
			NCores: uint8(n),
			Apps:   apps,
		}
		switch {
		case slacks != nil:
			wr.Flags = wire.FlagSlackPerCore
			wr.Slacks = slacks
		case slack != 0:
			wr.Flags = wire.FlagSlackUniform
			wr.Slack = slack
		}
		wireReqs[i] = wr
	}
	return jsonReqs, wireReqs
}

// TestWireHelloMeta: the binary port is self-describing — Hello answers
// the serving database's integer fingerprint, core count and the explicit
// BenchID table (BenchNames order is alphabetical, so the IDs must be
// carried, not implied).
func TestWireHelloMeta(t *testing.T) {
	srv, _, addr := wireServer(t, Options{Shards: 2})
	w := dialWire(t, addr)
	w.send(t, wire.AppendHello(nil))
	typ, payload := w.next(t)
	if typ != wire.TypeMeta {
		t.Fatalf("Hello answered frame type %#x, want Meta", typ)
	}
	var m wire.Meta
	if err := wire.ParseMeta(payload, &m); err != nil {
		t.Fatal(err)
	}
	sn := srv.snap.Load()
	if m.DBHash != sn.hash64 || m.DBHash == 0 {
		t.Fatalf("meta hash %016x, want %016x (nonzero)", m.DBHash, sn.hash64)
	}
	db := sn.db
	if int(m.NCores) != db.Sys.NumCores {
		t.Fatalf("meta ncores %d, want %d", m.NCores, db.Sys.NumCores)
	}
	if len(m.Benches) != len(db.BenchNames()) {
		t.Fatalf("meta lists %d benches, want %d", len(m.Benches), len(db.BenchNames()))
	}
	for _, b := range m.Benches {
		id, ok := db.BenchIDOf(b.Name)
		if !ok || uint16(id) != b.ID {
			t.Fatalf("bench %q: meta id %d, database id %d (ok=%v)", b.Name, b.ID, id, ok)
		}
		if int(b.Phases) != db.Analysis(b.Name).NumPhases {
			t.Fatalf("bench %q: meta phases %d, database %d", b.Name, b.Phases, db.Analysis(b.Name).NumPhases)
		}
	}
}

// TestWireMatchesJSON is the cross-codec equivalence wall: the same
// seeded loadgen-style trace answered over HTTP/JSON and over the binary
// protocol must produce identical decisions — same decided flags, same
// per-core (size, freq, ways) — because both paths answer through the
// same shards and compute the same query hashes. The trace deliberately
// repeats configurations so wire answers are served from cache entries
// the JSON path populated (and vice versa).
func TestWireMatchesJSON(t *testing.T) {
	srv, url, addr := wireServer(t, Options{Shards: 3, CacheSize: 256})
	db := srv.snap.Load().db
	jsonReqs, wireReqs := wireTrace(t, srv, 1, 48)
	w := dialWire(t, addr)
	var resp wire.DecideResponse
	for i := range jsonReqs {
		var jr DecideResponse
		if code := postJSON(t, url+"/v1/decide", &jsonReqs[i], &jr); code != 200 {
			t.Fatalf("batch %d: JSON status %d", i, code)
		}
		w.send(t, wire.AppendDecideRequest(nil, &wireReqs[i]))
		typ, payload := w.next(t)
		if typ != wire.TypeDecideResponse {
			if typ == wire.TypeError {
				_, code, msg, _ := wire.ParseError(payload)
				t.Fatalf("batch %d: error frame code %d: %s", i, code, msg)
			}
			t.Fatalf("batch %d: frame type %#x", i, typ)
		}
		if err := wire.ParseDecideResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Seq != wireReqs[i].Seq {
			t.Fatalf("batch %d: seq %d echoed as %d", i, wireReqs[i].Seq, resp.Seq)
		}
		if len(resp.Decided) != len(jr.Results) {
			t.Fatalf("batch %d: %d wire results, %d JSON results", i, len(resp.Decided), len(jr.Results))
		}
		n := db.Sys.NumCores
		for q := range jr.Results {
			ja := jr.Results[q]
			if resp.Decided[q] != ja.Decided {
				t.Fatalf("batch %d query %d: wire decided=%v, JSON decided=%v", i, q, resp.Decided[q], ja.Decided)
			}
			for c := 0; c < n; c++ {
				ws := resp.Settings[q*n+c]
				js := ja.Settings[c]
				if js.Size != sizeName(ws.Size) || js.FreqIdx != int(ws.Freq) || js.Ways != int(ws.Ways) {
					t.Fatalf("batch %d query %d core %d: wire (%d,%d,%d) vs JSON (%s,%d,%d)",
						i, q, c, ws.Size, ws.Freq, ws.Ways, js.Size, js.FreqIdx, js.Ways)
				}
			}
		}
	}
}

// sizeName renders a wire core-size enum the way the JSON codec does.
func sizeName(size uint8) string {
	return arch.CoreSize(size).String()
}

// wireStreamHash replays the seeded trace against a fresh server and
// returns the FNV-64a of the concatenated binary response frames.
func wireStreamHash(t testing.TB, opt Options, seed uint64, count int) uint64 {
	t.Helper()
	srv, _, addr := wireServer(t, opt)
	_, wireReqs := wireTrace(t, srv, seed, count)
	w := dialWire(t, addr)
	h := fnv.New64a()
	for i := range wireReqs {
		w.send(t, wire.AppendDecideRequest(nil, &wireReqs[i]))
		typ, payload := w.next(t)
		if typ != wire.TypeDecideResponse {
			t.Fatalf("batch %d: frame type %#x", i, typ)
		}
		var hdr [wire.HeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
		hdr[4] = wire.Version
		hdr[5] = typ
		h.Write(hdr[:])
		h.Write(payload)
	}
	return h.Sum64()
}

// TestWireStreamDeterministic extends the byte-determinism wall to the
// binary protocol: the response stream for the seeded trace hashes
// identically across runs and across serving configurations (shard
// count, cache size, caching disabled) — framing included, so any codec
// or scheduling nondeterminism fails loudly.
func TestWireStreamDeterministic(t *testing.T) {
	const seed, count = 7, 32
	base := wireStreamHash(t, Options{Shards: 1, CacheSize: 64}, seed, count)
	for _, opt := range []Options{
		{Shards: 1, CacheSize: 64},
		{Shards: 4, CacheSize: 256},
		{Shards: 3, CacheSize: -1},
	} {
		if got := wireStreamHash(t, opt, seed, count); got != base {
			t.Fatalf("stream hash %016x under %+v, want %016x", got, opt, base)
		}
	}
}

// TestWireMalformedFrameKeepsConnection: every recoverable failure — an
// unparseable payload, a semantically invalid request, an unknown frame
// type — answers a typed Error frame and the connection keeps serving.
func TestWireMalformedFrameKeepsConnection(t *testing.T) {
	srv, _, addr := wireServer(t, Options{Shards: 2})
	db := srv.snap.Load().db
	n := db.Sys.NumCores
	good := wire.DecideRequest{
		Seq: 99, NCores: uint8(n),
		Apps: make([]wire.App, n),
	}
	w := dialWire(t, addr)

	expectError := func(step string, frame []byte, wantCode wire.ErrCode) {
		t.Helper()
		w.send(t, frame)
		typ, payload := w.next(t)
		if typ != wire.TypeError {
			t.Fatalf("%s: frame type %#x, want Error", step, typ)
		}
		_, code, msg, err := wire.ParseError(payload)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if code != wantCode {
			t.Fatalf("%s: error code %d (%s), want %d", step, code, msg, wantCode)
		}
	}

	// Truncated payload inside a well-formed frame.
	expectError("truncated", append(wire.AppendHeader(nil, wire.TypeDecideRequest, 3), 0, 0, 0), wire.ErrCodeMalformed)
	// Wrong core count.
	bad := good
	bad.NCores = uint8(n + 1)
	bad.Apps = make([]wire.App, n+1)
	expectError("ncores", wire.AppendDecideRequest(nil, &bad), wire.ErrCodeMalformed)
	// Unknown scheme ID.
	bad = good
	bad.Scheme = 200
	expectError("scheme", wire.AppendDecideRequest(nil, &bad), wire.ErrCodeMalformed)
	// Unknown benchmark ID.
	bad = good
	bad.Apps = make([]wire.App, n)
	bad.Apps[0].Bench = 60000
	expectError("bench", wire.AppendDecideRequest(nil, &bad), wire.ErrCodeMalformed)
	// Stale pinned database hash.
	bad = good
	bad.DBHash = 0xdeadbeef
	expectError("stale", wire.AppendDecideRequest(nil, &bad), wire.ErrCodeStaleDB)
	// Unknown frame type.
	expectError("type", wire.AppendHeader(nil, 0x7f, 0), wire.ErrCodeUnsupported)

	// The connection must still answer a valid request.
	w.send(t, wire.AppendDecideRequest(nil, &good))
	typ, payload := w.next(t)
	if typ != wire.TypeDecideResponse {
		t.Fatalf("after errors: frame type %#x, want DecideResponse", typ)
	}
	var resp wire.DecideResponse
	if err := wire.ParseDecideResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != good.Seq {
		t.Fatalf("seq %d echoed as %d", good.Seq, resp.Seq)
	}
	if srv.wire.decodeErrs.Load() == 0 {
		t.Fatal("decode-error counter never moved")
	}
}

// TestWireFatalFrameClosesConnection: an unframeable stream (bad version,
// oversized declared payload) answers one Error frame and the server
// closes the connection — resynchronization is impossible.
func TestWireFatalFrameClosesConnection(t *testing.T) {
	_, _, addr := wireServer(t, Options{Shards: 1})
	cases := []struct {
		name  string
		frame []byte
		code  wire.ErrCode
	}{
		{"version", func() []byte {
			f := wire.AppendHello(nil)
			f[4] = 9
			return f
		}(), wire.ErrCodeUnsupported},
		{"oversized", wire.AppendHeader(nil, wire.TypeDecideRequest, wire.MaxPayload+1), wire.ErrCodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := dialWire(t, addr)
			w.send(t, tc.frame)
			typ, payload := w.next(t)
			if typ != wire.TypeError {
				t.Fatalf("frame type %#x, want Error", typ)
			}
			_, code, _, err := wire.ParseError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Fatalf("error code %d, want %d", code, tc.code)
			}
			w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := w.r.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("connection stayed open after fatal frame (err %v)", err)
			}
		})
	}
}

// TestWireCloseTerminatesServing: Close tears down the listener and every
// open connection, and ServeWire on a closed server refuses immediately.
func TestWireCloseTerminatesServing(t *testing.T) {
	srv := New(testDB(t), nil, Options{Shards: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeWire(ln) }()
	w := dialWire(t, ln.Addr().String())
	w.send(t, wire.AppendHello(nil))
	w.next(t) // connection is live
	srv.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeWire returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWire did not return after Close")
	}
	w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := w.r.Next(); err == nil {
		t.Fatal("connection survived Close")
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeWire(ln2); !errors.Is(err, errServerClosed) {
		t.Fatalf("ServeWire on closed server returned %v", err)
	}
	if _, err := net.Dial("tcp", ln2.Addr().String()); err == nil {
		t.Fatal("listener left open by refused ServeWire")
	}
}

// TestWireGarbageStream: raw garbage bytes on the socket must produce an
// orderly close (the codec rejects the stream), with the decode-error
// counter recording the event — the service-level echo of FuzzWireDecode.
func TestWireGarbageStream(t *testing.T) {
	srv, _, addr := wireServer(t, Options{Shards: 1})
	w := dialWire(t, addr)
	w.send(t, bytes.Repeat([]byte{0xff}, 256))
	w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, _, err := w.r.Next(); err != nil {
			break
		}
	}
	// The server's read loop ends (fatal header) without panicking; the
	// next connection serves normally.
	w2 := dialWire(t, addr)
	w2.send(t, wire.AppendHello(nil))
	if typ, _ := w2.next(t); typ != wire.TypeMeta {
		t.Fatalf("fresh connection got frame %#x, want Meta", typ)
	}
	if srv.wire.decodeErrs.Load() == 0 {
		t.Fatal("garbage stream not counted as a decode error")
	}
}

// TestWireScratchReuseAcrossConfigs drives one connection through
// alternating manager configurations to cross the configuration-memo
// invalidation path: answers must match the JSON reference every time.
func TestWireScratchReuseAcrossConfigs(t *testing.T) {
	srv, url, addr := wireServer(t, Options{Shards: 2, CacheSize: 32})
	db := srv.snap.Load().db
	n := db.Sys.NumCores
	names := db.BenchNames()
	w := dialWire(t, addr)
	var resp wire.DecideResponse
	for i := 0; i < 12; i++ {
		scheme := []string{"rm2", "rm3"}[i%2]
		schemeID, _ := core.ParseScheme(scheme)
		slack := []float64{0, 0.1, 0.25}[i%3]
		apps := make([]AppQuery, n)
		wapps := make([]wire.App, n)
		for c := 0; c < n; c++ {
			name := names[(i+c)%len(names)]
			id, _ := db.BenchIDOf(name)
			apps[c] = AppQuery{Bench: name, Phase: 0}
			wapps[c] = wire.App{Bench: uint16(id)}
		}
		var jr DecideResponse
		jreq := DecideRequest{DecideQuery: DecideQuery{Scheme: scheme, Slack: slack, Apps: apps}}
		if code := postJSON(t, url+"/v1/decide", &jreq, &jr); code != 200 {
			t.Fatalf("step %d: JSON status %d", i, code)
		}
		wreq := wire.DecideRequest{Seq: uint32(i), Scheme: uint8(schemeID), NCores: uint8(n), Apps: wapps}
		if slack != 0 {
			wreq.Flags = wire.FlagSlackUniform
			wreq.Slack = slack
		}
		w.send(t, wire.AppendDecideRequest(nil, &wreq))
		typ, payload := w.next(t)
		if typ != wire.TypeDecideResponse {
			t.Fatalf("step %d: frame type %#x", i, typ)
		}
		if err := wire.ParseDecideResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Decided[0] != jr.Result.Decided {
			t.Fatalf("step %d: wire decided=%v, JSON decided=%v", i, resp.Decided[0], jr.Result.Decided)
		}
		for c := 0; c < n; c++ {
			ws := resp.Settings[c]
			js := jr.Result.Settings[c]
			if int(ws.Freq) != js.FreqIdx || int(ws.Ways) != js.Ways {
				t.Fatalf("step %d core %d: wire (%d,%d) vs JSON (%d,%d)",
					i, c, ws.Freq, ws.Ways, js.FreqIdx, js.Ways)
			}
		}
	}
}

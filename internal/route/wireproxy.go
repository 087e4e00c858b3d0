package route

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/ops"
	"qosrma/internal/wire"
)

// WireProxy extends the routing tier to the binary wire protocol: it
// accepts wire connections, splits each DecideRequest micro-batch by the
// same consistent-hash placement the JSON proxy uses (the canonical
// routing key is rendered from the Meta frame's interned benchmark
// table, so both codecs agree on ownership), forwards the sub-batches
// over pooled backend wire connections, and merges the answers into one
// response echoing the client's sequence number.
//
// The wire side shares the JSON path's failover core (lane.failover)
// over a lane of its own: per-replica circuit breakers (separate from the
// HTTP breakers — the wire listener can die alone), the shared health
// prober, bounded retries with backoff that Close cuts short, and ring
// spill when a whole group is out. A backend's drain goaway (Error
// frame, code Unavailable) is a retryable replica failure, so draining
// backends hand their in-flight keys to siblings without client-visible
// errors. Pooled connections that died while idle are rebuilt on demand
// (dial-with-backoff happens inside the same retry loop).
type WireProxy struct {
	lane // wire-capable replicas, their wire breakers and counters

	p      *Proxy
	ln     net.Listener
	ctx    context.Context // cancelled by Close: ends backoff in flight
	cancel context.CancelFunc
	pools  []*wirePool // parallel to p.replicas; nil = no wire listener

	metaMu   sync.Mutex // serializes the Meta fetch
	meta     atomic.Pointer[wireMeta]
	metaFail atomic.Pointer[metaFailure]
	cooldown time.Duration    // the wire breakers' open cooldown
	now      func() time.Time // the wire breakers' clock
	dials    *ops.Counter

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// metaFailure is a failed Hello sweep, remembered until retry so that
// decides and Hellos arriving meanwhile do not each sweep again.
type metaFailure struct {
	err   error
	retry time.Time
}

// wirePool is one replica's wire-connection pool: idle connections are
// reused, dead ones dropped.
type wirePool struct {
	addr string

	mu   sync.Mutex
	idle []*wireConn
}

// wireMeta is the first Meta frame a backend answered, published once
// and immutable after. names is indexed by interned bench ID: the Meta
// name, or "#id" for an ID the table does not list.
type wireMeta struct {
	raw   []byte // complete frame (header+payload)
	names []string
}

// newWireMeta parses a Meta payload into its published form.
func newWireMeta(payload []byte) (*wireMeta, error) {
	var parsed wire.Meta
	if err := wire.ParseMeta(payload, &parsed); err != nil {
		return nil, err
	}
	meta := &wireMeta{raw: append(wire.AppendHeader(nil, wire.TypeMeta, len(payload)), payload...)}
	for _, b := range parsed.Benches {
		for len(meta.names) <= int(b.ID) {
			meta.names = append(meta.names, unknownBench(uint16(len(meta.names))))
		}
		meta.names[b.ID] = b.Name
	}
	return meta, nil
}

// benchName returns the routing-key name of bench id: its Meta name, or
// "#id" before Meta has arrived (placement is then deterministic but
// not aligned with the JSON path's).
func (m *wireMeta) benchName(id uint16) string {
	if m != nil && int(id) < len(m.names) {
		return m.names[id]
	}
	return unknownBench(id)
}

func unknownBench(id uint16) string { return "#" + strconv.Itoa(int(id)) }

// defaultWireTimeout floors every wire-connection deadline when the
// operator disabled the per-attempt timeout: raw conn I/O has no
// context to fall back on and must never be unbounded.
const defaultWireTimeout = 2 * time.Second

// wireConn is one pooled backend connection with its framing reader.
type wireConn struct {
	c net.Conn
	r *wire.Reader
}

// ServeWire starts proxying the binary wire protocol on ln. Call once;
// the returned WireProxy is also closed by Proxy.Close.
func (p *Proxy) ServeWire(ln net.Listener) *WireProxy {
	wp := &WireProxy{
		p:     p,
		ln:    ln,
		pools: make([]*wirePool, len(p.replicas)),
		conns: make(map[net.Conn]struct{}),
	}
	wp.ctx, wp.cancel = context.WithCancel(context.Background())
	bopt := p.opt.Breaker.WithDefaults()
	wp.cooldown, wp.now = bopt.Cooldown, bopt.Clock
	wp.lane.build(p, func(rep *replica) bool { return rep.wireAddr != "" })
	for _, ri := range wp.all {
		wp.pools[ri] = &wirePool{addr: p.replicas[ri].wireAddr}
	}
	wp.retried = p.reg.Counter("qosrmad_route_wire_retries_total",
		"Wire forward attempts retried after a failure.", "")
	wp.failed = p.reg.Counter("qosrmad_route_wire_attempt_failures_total",
		"Individual wire forward attempts that failed.", "")
	wp.dials = p.reg.Counter("qosrmad_route_wire_dials_total",
		"Backend wire connections dialed (reconnects included).", "")
	wp.requests = p.reg.Counter("qosrmad_route_wire_requests_total",
		"Wire decide requests handled by the routing tier.", "")
	wp.splits = p.reg.Counter("qosrmad_route_wire_splits_total",
		"Wire decide requests that spanned more than one backend group.", "")
	wp.exhausted = p.reg.Counter("qosrmad_route_wire_exhausted_total",
		"Wire forwards that exhausted every attempt.", "")
	p.wire = wp
	wp.wg.Add(1)
	go wp.serve()
	return wp
}

// Close stops accepting, ends backoff in flight, closes client
// connections and the pools.
func (wp *WireProxy) Close() {
	wp.cancel()
	wp.closeOnce.Do(func() { wp.ln.Close() })
	wp.mu.Lock()
	for c := range wp.conns {
		c.Close()
	}
	wp.mu.Unlock()
	wp.wg.Wait()
	for _, pool := range wp.pools {
		if pool != nil {
			pool.drop()
		}
	}
}

func (wp *WireProxy) track(c net.Conn) bool {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.conns == nil {
		return false
	}
	wp.conns[c] = struct{}{}
	return true
}

func (wp *WireProxy) untrack(c net.Conn) {
	wp.mu.Lock()
	delete(wp.conns, c)
	wp.mu.Unlock()
}

func (wp *WireProxy) serve() {
	defer wp.wg.Done()
	for {
		c, err := wp.ln.Accept()
		if err != nil {
			return
		}
		if !wp.track(c) {
			c.Close()
			continue
		}
		wp.wg.Add(1)
		go wp.serveConn(c)
	}
}

// serveConn is one client connection's frame loop.
func (wp *WireProxy) serveConn(c net.Conn) {
	defer wp.wg.Done()
	defer wp.untrack(c)
	defer c.Close()
	r := wire.NewReader(c)
	var (
		req wire.DecideRequest
		out []byte
	)
	merge := mergeState{groups: make([][]int, len(wp.p.groups))}
	for {
		typ, payload, err := r.Next()
		// Bound every write this iteration makes: a client that stops
		// reading its responses must not wedge the proxy goroutine.
		// (Reads stay unbounded — an idle connection is legal, a
		// stalled write is not.)
		wd := wp.p.opt.attemptTimeout()
		if wd <= 0 {
			wd = defaultWireTimeout
		}
		c.SetWriteDeadline(time.Now().Add(wd)) //nolint:errcheck // net.TCPConn deadlines cannot fail
		if err != nil {
			if errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrTooLarge) {
				code := wire.ErrCodeUnsupported
				if errors.Is(err, wire.ErrTooLarge) {
					code = wire.ErrCodeTooLarge
				}
				out = wire.AppendError(out[:0], 0, code, err.Error())
				c.Write(out) //nolint:errcheck // closing anyway
			}
			return
		}
		switch typ {
		case wire.TypeHello:
			if meta, err := wp.ensureMeta(); err != nil {
				out = wire.AppendError(out[:0], 0, wire.ErrCodeUnavailable,
					"no backend answered Hello: "+err.Error())
			} else {
				out = append(out[:0], meta.raw...)
			}
		case wire.TypeDecideRequest:
			wp.requests.Inc()
			if err := wire.ParseDecideRequest(payload, &req); err != nil {
				out = wire.AppendError(out[:0], req.Seq, wire.ErrCodeMalformed, err.Error())
			} else {
				out = wp.handleDecide(out[:0], payload, &req, &merge)
			}
		default:
			out = wire.AppendError(out[:0], 0, wire.ErrCodeUnsupported,
				fmt.Sprintf("unexpected frame type %#x", typ))
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// mergeState is per-connection scratch for split decide merging.
type mergeState struct {
	hashes   []uint64
	prefix   []byte
	groups   [][]int // one query-index list per backend group
	sub      wire.DecideRequest
	subFrame []byte
	respBuf  []byte
	resp     wire.DecideResponse
	decided  []bool
	settings []wire.Setting
}

// handleDecide routes one parsed decide request and appends the complete
// response frame (DecideResponse or Error) to dst. payload is the raw
// request payload, reused verbatim for the single-group fast path.
func (wp *WireProxy) handleDecide(dst []byte, payload []byte, req *wire.DecideRequest, m *mergeState) []byte {
	count := req.Count()
	n := int(req.NCores)

	distinct, split := wp.place(m, req)
	if !split {
		// One owning group: forward the original frame bytes untouched.
		m.subFrame = wire.AppendHeader(m.subFrame[:0], wire.TypeDecideRequest, len(payload))
		m.subFrame = append(m.subFrame, payload...)
		typ, resp, err := wp.forward(distinct, m.subFrame, m.respBuf[:0])
		m.respBuf = resp[:0]
		if err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeUnavailable, err.Error())
		}
		return wp.relay(dst, req.Seq, typ, resp)
	}
	wp.splits.Inc()

	if cap(m.decided) < count {
		m.decided = make([]bool, count)
	}
	m.decided = m.decided[:count]
	if cap(m.settings) < count*n {
		m.settings = make([]wire.Setting, count*n)
	}
	m.settings = m.settings[:count*n]

	for g, idx := range m.groups {
		if len(idx) == 0 {
			continue
		}
		m.sub = wire.DecideRequest{
			Seq:    req.Seq,
			DBHash: req.DBHash,
			Scheme: req.Scheme,
			Model:  req.Model,
			Flags:  req.Flags,
			NCores: req.NCores,
			Slack:  req.Slack,
			Slacks: append(m.sub.Slacks[:0], req.Slacks...),
			Apps:   m.sub.Apps[:0],
		}
		for _, qi := range idx {
			m.sub.Apps = append(m.sub.Apps, req.Apps[qi*n:(qi+1)*n]...)
		}
		m.subFrame = wire.AppendDecideRequest(m.subFrame[:0], &m.sub)
		typ, resp, err := wp.forward(g, m.subFrame, m.respBuf[:0])
		m.respBuf = resp[:0]
		if err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeUnavailable,
				fmt.Sprintf("backend group %s: %v", wp.p.ring.Backends()[g].Name, err))
		}
		if typ != wire.TypeDecideResponse {
			// Propagate the backend's own error (stale DB, malformed)
			// verbatim — it already echoes the client's sequence number.
			return wp.relay(dst, req.Seq, typ, resp)
		}
		if err := wire.ParseDecideResponse(resp, &m.resp); err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeMalformed,
				"backend response: "+err.Error())
		}
		if len(m.resp.Decided) != len(idx) || int(m.resp.NCores) != n {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeMalformed,
				fmt.Sprintf("backend group %s answered %d results for %d queries",
					wp.p.ring.Backends()[g].Name, len(m.resp.Decided), len(idx)))
		}
		for j, qi := range idx {
			m.decided[qi] = m.resp.Decided[j]
			copy(m.settings[qi*n:(qi+1)*n], m.resp.Settings[j*n:(j+1)*n])
		}
	}
	return wire.AppendDecideResponse(dst, &wire.DecideResponse{
		Seq:      req.Seq,
		NCores:   req.NCores,
		Decided:  m.decided,
		Settings: m.settings,
	})
}

// place assigns every query of req to its owning group's list in
// m.groups and returns what picker.assign returns.
//
//qosrma:noalloc
func (wp *WireProxy) place(m *mergeState, req *wire.DecideRequest) (int, bool) {
	// Benchmark names for the canonical routing key come from Meta; while
	// none is published, the "#id" names stand in.
	meta, _ := wp.ensureMeta() //nolint:errcheck // "#id" names stand in
	m.hashes, m.prefix = wireKeyHashes(m.hashes[:0], m.prefix[:0], req, meta)
	for g := range m.groups {
		m.groups[g] = m.groups[g][:0]
	}
	return wp.p.groupPicker().assign(m.groups, m.hashes)
}

// relay appends a backend frame (response or error) for the client,
// rebuilding the header around the payload bytes.
func (wp *WireProxy) relay(dst []byte, seq uint32, typ byte, payload []byte) []byte {
	if typ != wire.TypeDecideResponse && typ != wire.TypeError {
		return wire.AppendError(dst, seq, wire.ErrCodeMalformed,
			fmt.Sprintf("backend answered unexpected frame type %#x", typ))
	}
	dst = wire.AppendHeader(dst, typ, len(payload))
	return append(dst, payload...)
}

// forward is the wire adapter over the failover core: one request frame
// to group g, with the configured retries (decide frames are
// idempotent). An Error frame with code Unavailable is a draining or
// closed replica, so an attempt failure like any other. The response
// payload is appended to respBuf (a copy — it must outlive the pooled
// connection's read buffer).
func (wp *WireProxy) forward(g int, frame []byte, respBuf []byte) (typ byte, resp []byte, err error) {
	resp = respBuf
	err = wp.failover(wp.ctx, g, 1+wp.p.opt.retries(), true, func(ri int) (err error) {
		typ, resp, err = wp.pools[ri].roundTrip(wp.dials, wp.p.opt.attemptTimeout(), frame, respBuf)
		if err == nil && typ == wire.TypeError {
			if _, code, msg, perr := wire.ParseError(resp); perr == nil && code == wire.ErrCodeUnavailable {
				err = fmt.Errorf("backend error frame code %d: %s", code, msg)
			}
		}
		return err
	})
	return typ, resp, err
}

// ensureMeta returns the published Meta, fetching it with a Hello sweep
// when none is published yet: through the failover core, one attempt per
// wire replica of any group, off the forward counters. The benchmark
// table it carries also feeds the canonical routing key. A failed sweep
// is remembered for the wire breakers' open cooldown: until then
// ensureMeta returns its error at once instead of sweeping again.
func (wp *WireProxy) ensureMeta() (*wireMeta, error) {
	if meta, err := wp.knownMeta(); meta != nil || err != nil {
		return meta, err
	}
	wp.metaMu.Lock()
	defer wp.metaMu.Unlock()
	if meta, err := wp.knownMeta(); meta != nil || err != nil {
		return meta, err
	}
	hello := wire.AppendHello(nil)
	var meta *wireMeta
	err := wp.failover(wp.ctx, anyGroup, len(wp.all), false, func(ri int) error {
		typ, resp, err := wp.pools[ri].roundTrip(wp.dials, wp.p.opt.attemptTimeout(), hello, nil)
		if err == nil && typ != wire.TypeMeta {
			err = fmt.Errorf("replica %s answered frame type %#x to Hello", wp.pools[ri].addr, typ)
		}
		if err == nil {
			meta, err = newWireMeta(resp)
		}
		return err
	})
	if err != nil {
		wp.metaFail.Store(&metaFailure{err: err, retry: wp.now().Add(wp.cooldown)})
		return nil, err
	}
	wp.meta.Store(meta)
	return meta, nil
}

// knownMeta returns the published Meta, or the last failed sweep's error
// until its retry time; both nil mean a sweep is due.
func (wp *WireProxy) knownMeta() (*wireMeta, error) {
	if meta := wp.meta.Load(); meta != nil {
		return meta, nil
	}
	if f := wp.metaFail.Load(); f != nil && wp.now().Before(f.retry) {
		return nil, f.err
	}
	return nil, nil
}

// wireSchemeNames maps interned scheme IDs to the canonical lowercased
// names the JSON path routes by, keeping both codecs' placement aligned.
var wireSchemeNames = [...]string{"static", "dvfs", "rm1", "rm2", "rm3", "ucp"}

// wireKeyHashes appends Hash(RoutingKey(q)) for the JSON form q of each
// query of req to hs, rendering the batch prefix into prefix once.
//
//qosrma:noalloc
func wireKeyHashes(hs []uint64, prefix []byte, req *wire.DecideRequest, meta *wireMeta) ([]uint64, []byte) {
	var (
		scheme string
		slack  float64
		slacks []float64
	)
	if int(req.Scheme) < len(wireSchemeNames) {
		scheme = wireSchemeNames[req.Scheme]
	} else {
		scheme = strconv.Itoa(int(req.Scheme))
	}
	switch {
	case req.Flags&wire.FlagSlackPerCore != 0:
		slacks = req.Slacks
	case req.Flags&wire.FlagSlackUniform != 0:
		slack = req.Slack
	}
	prefix = appendKeyPrefix(prefix, scheme, int(req.Model), slack, slacks)
	h0, n := Hash(prefix), int(req.NCores)
	for qi := 0; qi < req.Count(); qi++ {
		h := h0
		for _, a := range req.Apps[qi*n : (qi+1)*n] {
			h = hashKeyApp(h, meta.benchName(a.Bench), int(a.Phase))
		}
		hs = append(hs, h)
	}
	return hs, prefix
}

// get pops an idle connection or dials a fresh one.
func (pool *wirePool) get(dials *ops.Counter, timeout time.Duration) (*wireConn, error) {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		wc := pool.idle[n-1]
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		return wc, nil
	}
	pool.mu.Unlock()
	if timeout <= 0 {
		timeout = defaultWireTimeout
	}
	c, err := net.DialTimeout("tcp", pool.addr, timeout)
	if err != nil {
		return nil, err
	}
	dials.Inc()
	return &wireConn{c: c, r: wire.NewReader(c)}, nil
}

// put returns a healthy connection to the pool.
func (pool *wirePool) put(wc *wireConn) {
	pool.mu.Lock()
	pool.idle = append(pool.idle, wc)
	pool.mu.Unlock()
}

// drop closes every idle connection.
func (pool *wirePool) drop() {
	pool.mu.Lock()
	idle := pool.idle
	pool.idle = nil
	pool.mu.Unlock()
	for _, wc := range idle {
		wc.c.Close()
	}
}

// roundTrip writes one request frame and reads one response frame,
// appending the payload to respBuf (copied out of the connection's read
// buffer). Any error closes the connection instead of pooling it — the
// next attempt reconnects.
func (pool *wirePool) roundTrip(dials *ops.Counter, timeout time.Duration, frame []byte, respBuf []byte) (byte, []byte, error) {
	wc, err := pool.get(dials, timeout)
	if err != nil {
		return 0, respBuf, err
	}
	// A forward attempt must always be bounded. Unlike the HTTP path
	// there is no caller context to fall back on, so a disabled
	// per-attempt timeout (AttemptTimeout < 0) is floored rather than
	// skipped — a backend that accepts the connection and then goes
	// silent would otherwise wedge this goroutine forever.
	if timeout <= 0 {
		timeout = defaultWireTimeout
	}
	wc.c.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck // net.TCPConn deadlines cannot fail
	if _, err := wc.c.Write(frame); err != nil {
		wc.c.Close()
		return 0, respBuf, fmt.Errorf("replica %s: %w", pool.addr, err)
	}
	typ, payload, err := wc.r.Next()
	if err != nil {
		wc.c.Close()
		return 0, respBuf, fmt.Errorf("replica %s: %w", pool.addr, err)
	}
	respBuf = append(respBuf, payload...)
	// The deadline stays set: every use of a pooled connection sets its
	// own before it writes, and nothing reads an idle one.
	pool.put(wc)
	return typ, respBuf, nil
}

// Binary serving path: the wire protocol (internal/wire) served over raw
// TCP beside the HTTP/JSON API. A connection is one goroutine running a
// decode → decide → encode loop over per-connection scratch: frames are
// parsed zero-copy out of the read buffer, queries are resolved by the
// same resolver the JSON path uses (so both codecs compute the same query
// hashes and share shard placement and cached decisions), and the answer
// is encoded into a reused output buffer — the steady-state loop
// performs no per-request allocation. Queries resolved here alias
// connection scratch, which is why a shard clones a query before the
// cache may retain it.
//
// Error discipline mirrors the codec's contract: a malformed payload
// inside a well-formed frame answers a TypeError frame and the connection
// continues; an unframeable stream (bad version, oversized declared
// length) answers TypeError and closes, since resynchronization is
// impossible. Responses are bit-identical to the JSON path — both feed
// the same shard channels — which TestWireMatchesJSON pins.
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/wire"
)

// wireStats are the binary path's counters, read by /metrics and healthz
// concurrently with the connection goroutines.
type wireStats struct {
	conns      atomic.Uint64 // connections accepted
	open       atomic.Int64  // connections currently open
	frames     atomic.Uint64 // frames decoded (any type)
	queries    atomic.Uint64 // decide queries answered over the wire
	decodeErrs atomic.Uint64 // malformed/unframeable input events
	goaways    atomic.Uint64 // drain farewell frames sent
}

// ServeWire accepts connections on ln and serves the binary decide
// protocol on each until ln fails or the server closes. It blocks like
// http.Server.Serve; run it on its own goroutine. Close (and Shutdown's
// final phase) closes the listener and every open wire connection;
// ServeWire then returns nil.
func (s *Server) ServeWire(ln net.Listener) error {
	if !s.trackWire(ln, nil) {
		ln.Close()
		return errServerClosed
	}
	defer s.untrackWire(ln, nil)
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.wireClosed() {
				return nil
			}
			return err
		}
		go s.serveWireConn(c)
	}
}

// trackWire registers a listener or connection for teardown by Close,
// refusing (false) once the server is closed or draining. A tracked
// connection joins wireWG, which Shutdown waits on; untrackWire leaves
// it.
func (s *Server) trackWire(ln net.Listener, c net.Conn) bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireDone || s.wireDraining {
		return false
	}
	if ln != nil {
		if s.wireLns == nil {
			s.wireLns = make(map[net.Listener]struct{})
		}
		s.wireLns[ln] = struct{}{}
	}
	if c != nil {
		if s.wireConns == nil {
			s.wireConns = make(map[net.Conn]struct{})
		}
		s.wireConns[c] = struct{}{}
		s.wireWG.Add(1)
	}
	return true
}

func (s *Server) untrackWire(ln net.Listener, c net.Conn) {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if ln != nil {
		delete(s.wireLns, ln)
	}
	if c != nil {
		delete(s.wireConns, c)
		s.wireWG.Done()
	}
}

func (s *Server) wireClosed() bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	return s.wireDone || s.wireDraining
}

// drainWire starts the binary path's graceful drain: listeners stop
// accepting, no new connection registers, and every open connection's
// blocked read is woken (via an immediate read deadline) so its serve
// loop can answer the frame it already holds, send the goaway Error
// frame and exit. Unlike closeWire it leaves established connections
// open for that farewell; Shutdown waits on wireWG for the loops.
func (s *Server) drainWire() {
	s.wireMu.Lock()
	s.wireDraining = true
	for ln := range s.wireLns {
		ln.Close()
	}
	s.wireLns = nil
	for c := range s.wireConns {
		c.SetReadDeadline(time.Now())
	}
	s.wireMu.Unlock()
}

// closeWire tears down the binary serving path: no new listeners or
// connections register, and every open one is closed (which unblocks
// their goroutines' reads). Called from Close.
func (s *Server) closeWire() {
	s.wireMu.Lock()
	s.wireDone = true
	for ln := range s.wireLns {
		ln.Close()
	}
	for c := range s.wireConns {
		c.Close()
	}
	s.wireLns, s.wireConns = nil, nil
	s.wireMu.Unlock()
}

// wireScratch is one connection's reusable decode/resolve/encode state.
// Everything grows to the connection's working set once and is reused for
// every later frame; the embedded resolver also memoizes the manager
// configuration, which frames on one connection overwhelmingly repeat.
//
//qosrma:shardowned
type wireScratch struct {
	req  wire.DecideRequest
	resp wire.DecideResponse
	out  []byte
	resolver
}

// serveWireConn runs one connection's serve loop.
func (s *Server) serveWireConn(c net.Conn) {
	if !s.trackWire(nil, c) {
		// Refused because the server is draining or closed: send the
		// goaway frame as a courtesy so the client fails over instead of
		// diagnosing a bare reset.
		s.writeWireGoaway(bufio.NewWriterSize(c, 256))
		c.Close()
		return
	}
	defer s.untrackWire(nil, c)
	defer c.Close()
	s.wire.conns.Add(1)
	s.wire.open.Add(1)
	defer s.wire.open.Add(-1)

	r := wire.NewReader(c)
	bw := bufio.NewWriterSize(c, 64<<10)
	var sc wireScratch
	for {
		typ, payload, err := r.Next()
		if err != nil {
			if s.wireClosed() {
				// drainWire woke the read (or ended it mid-frame): say
				// goodbye so the client retries against a sibling.
				s.writeWireGoaway(bw)
				return
			}
			// Unframeable streams get a last-gasp error frame; plain I/O
			// errors (including clean EOF) just end the connection.
			switch {
			case errors.Is(err, wire.ErrVersion):
				s.wire.decodeErrs.Add(1)
				s.writeWireError(bw, 0, wire.ErrCodeUnsupported, err.Error())
			case errors.Is(err, wire.ErrTooLarge):
				s.wire.decodeErrs.Add(1)
				s.writeWireError(bw, 0, wire.ErrCodeTooLarge, err.Error())
			case err == io.ErrUnexpectedEOF:
				s.wire.decodeErrs.Add(1)
			}
			return
		}
		s.wire.frames.Add(1)
		switch typ {
		case wire.TypeHello:
			if !s.writeWireMeta(bw) {
				return
			}
		case wire.TypeDecideRequest:
			if !s.handleWireDecide(bw, payload, &sc) {
				return
			}
		default:
			// A well-formed frame of a type the server does not accept is
			// recoverable: report it and keep the stream.
			s.wire.decodeErrs.Add(1)
			if !s.writeWireError(bw, wireSeqOf(payload), wire.ErrCodeUnsupported,
				fmt.Sprintf("unsupported frame type %#x", typ)) {
				return
			}
		}
		if s.wireClosed() {
			// The in-flight frame was answered above; now announce the
			// drain and end the connection.
			s.writeWireGoaway(bw)
			return
		}
	}
}

// writeWireGoaway emits the drain farewell: an Error frame (seq 0, code
// Unavailable) that clients interpret as "this replica is leaving,
// retry elsewhere".
func (s *Server) writeWireGoaway(bw *bufio.Writer) {
	s.wire.goaways.Add(1)
	s.writeWireError(bw, 0, wire.ErrCodeUnavailable, "server draining (goaway)")
}

// wireSeqOf best-effort extracts the leading sequence number of a payload
// so error frames can still be matched by pipelining clients.
func wireSeqOf(p []byte) uint32 {
	if len(p) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// writeWireError emits and flushes a TypeError frame, reporting whether
// the connection is still writable.
func (s *Server) writeWireError(bw *bufio.Writer, seq uint32, code wire.ErrCode, msg string) bool {
	out := wire.AppendError(nil, seq, code, msg)
	if _, err := bw.Write(out); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// writeWireMeta answers a Hello with the serving snapshot's Meta frame:
// the explicit BenchID → (phases, name) table clients intern against, the
// core count and the database content hash (the integer form of
// Fingerprint, which DecideRequest frames may pin via DBHash).
func (s *Server) writeWireMeta(bw *bufio.Writer) bool {
	sn := s.snap.Load()
	db := sn.db
	m := wire.Meta{DBHash: sn.hash64, NCores: uint8(db.Sys.NumCores)}
	for _, name := range db.BenchNames() {
		id, _ := db.BenchIDOf(name)
		m.Benches = append(m.Benches, wire.MetaBench{
			ID:     uint16(id),
			Phases: uint16(db.Benches[id].Analysis.NumPhases),
			Name:   name,
		})
	}
	out := wire.AppendMeta(nil, &m)
	if _, err := bw.Write(out); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// handleWireDecide answers one DecideRequest frame: parse, validate
// against the current snapshot, answer through the same shards the JSON
// path uses, encode. Returns false when the connection is no
// longer writable; every request-level failure answers an Error frame and
// keeps the connection.
func (s *Server) handleWireDecide(bw *bufio.Writer, payload []byte, sc *wireScratch) bool {
	req := &sc.req
	if err := wire.ParseDecideRequest(payload, req); err != nil {
		s.wire.decodeErrs.Add(1)
		return s.writeWireError(bw, wireSeqOf(payload), wire.ErrCodeMalformed, err.Error())
	}
	sn := s.snap.Load()
	if req.DBHash != 0 && req.DBHash != sn.hash64 {
		return s.writeWireError(bw, req.Seq, wire.ErrCodeStaleDB,
			fmt.Sprintf("request pinned db %016x, serving %s", req.DBHash, sn.hash))
	}
	count, errCode, err := s.resolveWireQueries(sn, sc)
	if err != nil {
		if errCode == wire.ErrCodeMalformed {
			s.wire.decodeErrs.Add(1)
		}
		return s.writeWireError(bw, req.Seq, errCode, err.Error())
	}
	if err := s.decideInto(sn, &sc.fan); err != nil {
		return s.writeWireError(bw, req.Seq, wire.ErrCodeUnavailable, err.Error())
	}
	s.wire.queries.Add(uint64(count))

	resp := &sc.resp
	resp.Seq = req.Seq
	resp.NCores = req.NCores
	resp.Decided = resp.Decided[:0]
	resp.Settings = resp.Settings[:0]
	for i := 0; i < count; i++ {
		res := &sc.fan.results[i]
		resp.Decided = append(resp.Decided, res.decided)
		for _, st := range res.settings {
			resp.Settings = append(resp.Settings, wire.Setting{
				Size: uint8(st.Size),
				Freq: uint8(st.FreqIdx),
				Ways: uint8(st.Ways),
			})
		}
	}
	sc.out = wire.AppendDecideResponse(sc.out[:0], resp)
	if _, err := bw.Write(sc.out); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// resolveWireQueries validates sc.req against the snapshot and fills the
// resolver with queries whose configurations and hashes match the JSON
// path's. On success the first return is the query count and sc.fan is
// sized to it.
func (s *Server) resolveWireQueries(sn *snapshot, sc *wireScratch) (int, wire.ErrCode, error) {
	req := &sc.req
	db := sn.db
	n := db.Sys.NumCores
	if int(req.NCores) != n {
		return 0, wire.ErrCodeMalformed,
			fmt.Errorf("co-phase vector needs %d apps (one per core), got %d", n, req.NCores)
	}
	if req.Scheme > uint8(core.SchemeUCPDVFS) {
		return 0, wire.ErrCodeMalformed, fmt.Errorf("unknown scheme id %d", req.Scheme)
	}
	scheme := core.Scheme(req.Scheme)
	model, err := parseModel(int(req.Model), scheme)
	if err != nil {
		return 0, wire.ErrCodeMalformed, err
	}
	count := req.Count()
	if count > maxBatch {
		return 0, wire.ErrCodeMalformed, errBatchTooLarge(count)
	}
	rs := &sc.resolver
	rs.prepare(count, count*n, n)

	// Slack resolution mirrors the JSON path exactly: a uniform slack of
	// zero is the nil (no-slack) configuration, a per-core vector is taken
	// verbatim (even all-zero), negatives are rejected.
	var slack []float64
	switch {
	case req.Flags&wire.FlagSlackUniform != 0 && req.Slack != 0:
		slack = rs.slack
		for i := range slack {
			slack[i] = req.Slack
		}
	case req.Flags&wire.FlagSlackPerCore != 0:
		slack = rs.slack
		copy(slack, req.Slacks)
	}
	if err := checkSlack(slack); err != nil {
		return 0, wire.ErrCodeMalformed, err
	}
	rs.config(scheme, model, slack)
	for qi := 0; qi < count; qi++ {
		ids := rs.ids[qi*n : (qi+1)*n]
		phases := rs.phases[qi*n : (qi+1)*n]
		for c, a := range req.Apps[qi*n : (qi+1)*n] {
			id := int(a.Bench)
			if id >= len(db.Benches) {
				return 0, wire.ErrCodeMalformed,
					fmt.Errorf("query %d: unknown benchmark id %d", qi, id)
			}
			np := db.Benches[id].Analysis.NumPhases
			if int(a.Phase) >= np {
				return 0, wire.ErrCodeMalformed,
					fmt.Errorf("query %d: benchmark %d has phases 0..%d, got %d", qi, id, np-1, a.Phase)
			}
			ids[c] = simdb.BenchID(id)
			phases[c] = int(a.Phase)
		}
		rs.set(qi, slack, ids, phases)
	}
	return count, 0, nil
}

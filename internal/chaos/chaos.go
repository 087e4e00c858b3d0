// Package chaos is the repository's fault-injection harness: a TCP proxy
// that sits between a client and a backend and injects the failures a
// production fleet actually sees — added latency and jitter, connection
// resets, partial writes followed by a reset, and blackholes (accepted
// connections that never answer) — plus an operator switch (SetCut) that
// simulates killing and restarting the backend. Every fault decision is
// drawn from a deterministic seeded RNG stream (internal/stats), keyed by
// the proxy seed and the connection's accept sequence number, so a chaos
// run replays the same fault schedule for the same connection order.
//
// The proxy is protocol-agnostic — it forwards bytes — so one harness
// exercises both the HTTP/JSON path and the binary wire protocol. The
// chaos test wall (chaos_test.go, run by `make chaos`) stands up a fleet
// of real decision servers behind these proxies, drives the routing tier
// through injected faults, and asserts the resilience invariants: every
// successful decide answer is bit-identical to the library, error rates
// stay bounded, and ejected backends are readmitted after they heal.
package chaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/stats"
)

// Faults describes the injected failure mix. Probabilities are evaluated
// per forwarded chunk (one Read from either side) except BlackholeProb,
// which is drawn once per connection. The zero value forwards cleanly.
type Faults struct {
	// Seed keys the deterministic fault streams (one per connection,
	// derived from Seed and the accept sequence number).
	Seed uint64
	// LatencyMin/LatencyMax bound the uniform extra delay injected before
	// each forwarded chunk (jitter = the Max-Min spread).
	LatencyMin time.Duration
	LatencyMax time.Duration
	// ResetProb is the per-chunk probability of hard-closing both sides
	// mid-stream (a connection reset).
	ResetProb float64
	// PartialWriteProb is the per-chunk probability of forwarding only a
	// prefix of the chunk and then resetting — the truncated-response
	// case (a reset mid-body, after the status line already went out).
	PartialWriteProb float64
	// BlackholeProb is the per-connection probability of accepting and
	// reading but never forwarding anything — the client sees a hung
	// connection until its own deadline fires.
	BlackholeProb float64
}

// Proxy is one fault-injecting TCP forwarder. Construct with NewProxy;
// point clients at Addr.
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	faults Faults
	cut    bool
	conns  map[net.Conn]struct{}

	seq        atomic.Uint64 // accept sequence, keys per-connection RNGs
	accepted   atomic.Uint64
	refused    atomic.Uint64 // connections dropped while cut
	resets     atomic.Uint64 // injected resets (incl. after partial writes)
	blackholes atomic.Uint64 // connections blackholed

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewProxy listens on 127.0.0.1 (ephemeral port) and forwards every
// accepted connection to target, injecting f's faults.
//
//qosrma:allow(testonly) the fault-injection proxy of the chaos wall's tests
func NewProxy(target string, f Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, faults: f, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr is the proxy's listen address (host:port) — what clients dial.
//
//qosrma:allow(testonly) the fault-injection proxy of the chaos wall's tests
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetFaults replaces the fault mix for connections accepted from now on.
//
//qosrma:allow(testonly) the fault-injection proxy of the chaos wall's tests
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// SetCut simulates killing (true) and restarting (false) the backend:
// while cut, new connections are accepted and immediately reset and every
// established connection is torn down. The listener itself stays open, so
// healing is instant — exactly like a crashed process returning on the
// same port.
//
//qosrma:allow(testonly) the fault-injection proxy of the chaos wall's tests
func (p *Proxy) SetCut(cut bool) {
	p.mu.Lock()
	p.cut = cut
	var toClose []net.Conn
	if cut {
		for c := range p.conns {
			toClose = append(toClose, c)
		}
	}
	p.mu.Unlock()
	for _, c := range toClose {
		hardClose(c)
	}
}

// Close stops accepting and tears down every connection.
//
//qosrma:allow(testonly) the fault-injection proxy of the chaos wall's tests
func (p *Proxy) Close() {
	p.closeOnce.Do(func() { p.ln.Close() })
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// track registers a connection for teardown; false means the proxy is
// cut or closed and the connection must be dropped.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cut {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// serve is the accept loop.
func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(client) {
			p.refused.Add(1)
			hardClose(client)
			continue
		}
		p.accepted.Add(1)
		n := p.seq.Add(1)
		p.mu.Lock()
		f := p.faults
		p.mu.Unlock()
		p.wg.Add(1)
		go p.forward(client, n, f)
	}
}

// forward runs one proxied connection: dial the backend, then pump both
// directions through the fault injector until either side closes or a
// fault kills the stream.
func (p *Proxy) forward(client net.Conn, seq uint64, f Faults) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()

	// One independent deterministic stream per direction, both derived
	// from the proxy seed and the accept sequence number.
	connSeed := stats.SeedFrom(f.Seed, fmt.Sprintf("chaos/conn/%d", seq))
	if f.BlackholeProb > 0 &&
		stats.NewRNG(stats.SeedFrom(connSeed, "blackhole")).Float64() < f.BlackholeProb {
		// Read and discard forever; never dial the backend. The client
		// observes a connection that accepts requests and answers nothing.
		p.blackholes.Add(1)
		io.Copy(io.Discard, client) //nolint:errcheck // drained until the client gives up
		return
	}

	backend, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		hardClose(client)
		return
	}
	if !p.track(backend) {
		hardClose(backend)
		hardClose(client)
		return
	}
	defer p.untrack(backend)
	defer backend.Close()

	kill := func() {
		p.resets.Add(1)
		hardClose(client)
		hardClose(backend)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(client, backend, stats.NewRNG(stats.SeedFrom(connSeed, "c2b")), f, kill)
	}()
	go func() {
		defer wg.Done()
		p.pump(backend, client, stats.NewRNG(stats.SeedFrom(connSeed, "b2c")), f, kill)
	}()
	wg.Wait()
}

// pump copies src → dst chunk by chunk, injecting latency, partial
// writes and resets per the fault mix. kill hard-closes both sides.
func (p *Proxy) pump(src, dst net.Conn, rng *stats.RNG, f Faults, kill func()) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := f.delay(rng); d > 0 {
				time.Sleep(d)
			}
			switch {
			case f.ResetProb > 0 && rng.Float64() < f.ResetProb:
				kill()
				return
			case f.PartialWriteProb > 0 && rng.Float64() < f.PartialWriteProb && n > 1:
				dst.Write(buf[:n/2]) //nolint:errcheck // about to reset anyway
				kill()
				return
			default:
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			// Half-close so the other pump can finish its direction; a
			// full Close would race responses still in flight.
			if tc, ok := dst.(*net.TCPConn); ok && err == io.EOF {
				tc.CloseWrite() //nolint:errcheck // best effort
			} else {
				dst.Close()
			}
			return
		}
	}
}

// delay draws the injected per-chunk latency.
func (f Faults) delay(rng *stats.RNG) time.Duration {
	if f.LatencyMax <= 0 {
		return 0
	}
	if f.LatencyMax <= f.LatencyMin {
		return f.LatencyMin
	}
	return f.LatencyMin + time.Duration(rng.Float64()*float64(f.LatencyMax-f.LatencyMin))
}

// hardClose resets the connection (RST, not FIN) so the peer observes
// the abrupt failure a crashed process produces.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck // best effort
	}
	c.Close()
}

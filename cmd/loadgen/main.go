// Command loadgen drives a running qosrmad with a deterministic co-phase
// decision workload and reports throughput and latency percentiles.
//
// The query population is drawn once from a seeded RNG (same seed, same
// queries — byte for byte), so runs are reproducible and the server's
// cache behaviour is controlled by -population: with the default the
// working set fits the decision LRUs and the run measures the cached hot
// path; raise it beyond shards x cache to measure compute throughput.
//
// Two driving modes:
//
//	-mode closed   -conns workers send batches back-to-back (throughput)
//	-mode open     batches are launched on a Poisson arrival schedule
//	               drawn from the workload arrival generator at -rate
//	               queries/sec; latency is measured from the scheduled
//	               arrival, so queueing delay is included (no coordinated
//	               omission)
//
// Two protocols:
//
//	default        HTTP/JSON against /v1/decide
//	-wire          the compact binary protocol (internal/wire) against a
//	               qosrmad -wire-addr listener: one multiplexed TCP
//	               connection per worker, queries interned against the
//	               server's Meta frame (closed mode only); lost
//	               connections are re-dialled with jittered backoff and
//	               the report counts them (reconnects=N)
//
// And multi-backend fan-out: -addrs takes a comma-separated server list;
// workers are spread across the backends round-robin and the report
// aggregates throughput and latency over the whole fleet — the client
// side of the consistent-hash routing tier (see docs/operations.md).
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7743 -duration 2s -conns 4 -batch 64
//	loadgen -mode open -rate 50000 -duration 5s
//	loadgen -wire -addr 127.0.0.1:7744
//	loadgen -addrs 10.0.0.1:7743,10.0.0.2:7743 -conns 8
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/core"
	"qosrma/internal/resilience"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
	"qosrma/internal/workload"
)

type metaBench struct {
	Name   string `json:"name"`
	Phases int    `json:"phases"`
}

type meta struct {
	NumCores int         `json:"num_cores"`
	Benches  []metaBench `json:"benches"`
	DBHash   string      `json:"db_hash"`
}

type appQuery struct {
	Bench string `json:"bench"`
	Phase int    `json:"phase"`
}

type decideQuery struct {
	Scheme string     `json:"scheme,omitempty"`
	Slack  float64    `json:"slack,omitempty"`
	Apps   []appQuery `json:"apps"`
}

type decideRequest struct {
	Queries []decideQuery `json:"queries"`
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7743", "qosrmad address")
		addrs      = flag.String("addrs", "", "comma-separated qosrmad addresses for multi-backend fan-out (overrides -addr)")
		wireProto  = flag.Bool("wire", false, "drive the binary decide protocol (server's -wire-addr listener) instead of HTTP/JSON")
		duration   = flag.Duration("duration", 2*time.Second, "run length")
		conns      = flag.Int("conns", 4, "concurrent connections (closed mode) / max in flight (open mode)")
		batch      = flag.Int("batch", 64, "decide queries per request")
		mode       = flag.String("mode", "closed", "closed (back-to-back) or open (Poisson arrivals)")
		rate       = flag.Float64("rate", 50000, "open mode: offered load in queries/sec")
		seed       = flag.Uint64("seed", 1, "trace seed (same seed, same queries)")
		scheme     = flag.String("scheme", "rm2", "decide scheme")
		slack      = flag.Float64("slack", 0.2, "uniform QoS slack")
		population = flag.Int("population", 512, "distinct co-phase queries in the trace")
		out        = flag.String("out", "", "also write the report to this file")
	)
	flag.Parse()

	targets := []string{*addr}
	if *addrs != "" {
		targets = targets[:0]
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				targets = append(targets, a)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintf(os.Stderr, "loadgen: -addrs names no servers\n")
			os.Exit(1)
		}
	}

	var (
		sent       atomic.Int64 // batches completed
		errs       atomic.Int64
		drained    atomic.Int64 // batches refused because the server is draining
		reconnects atomic.Int64 // wire connections re-established after a failure
		latMu      sync.Mutex
		lats       []time.Duration
	)
	record := func(d time.Duration) {
		latMu.Lock()
		lats = append(lats, d)
		latMu.Unlock()
	}

	proto := "json"
	var elapsed time.Duration
	if *wireProto {
		proto = "wire"
		if *mode != "closed" {
			fmt.Fprintf(os.Stderr, "loadgen: -wire supports -mode closed only\n")
			os.Exit(1)
		}
		elapsed = runWire(targets, *duration, *conns, *batch, *seed, *scheme, *slack,
			*population, &sent, &errs, &drained, &reconnects, record)
	} else {
		elapsed = runJSON(targets, *mode, *duration, *conns, *batch, *rate, *seed,
			*scheme, *slack, *population, &sent, &errs, &drained, record)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i].Seconds() * 1e3
	}
	batches := sent.Load()
	qps := float64(batches) * float64(*batch) / elapsed.Seconds()
	report := fmt.Sprintf(
		"loadgen: proto=%s mode=%s backends=%d conns=%d batch=%d population=%d seed=%d duration=%.2fs\n"+
			"queries=%d qps=%.0f batches=%d errors=%d drained=%d reconnects=%d\n"+
			"batch latency ms: p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f\n",
		proto, *mode, len(targets), *conns, *batch, *population, *seed, elapsed.Seconds(),
		batches*int64(*batch), qps, batches, errs.Load(), drained.Load(), reconnects.Load(),
		pct(0.50), pct(0.90), pct(0.99), pct(0.999), pct(1.0))
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}
	if errs.Load() > 0 {
		os.Exit(1)
	}
}

// runJSON drives the HTTP/JSON path, spreading workers (closed mode) or
// arrivals (open mode) round-robin over the target servers.
func runJSON(targets []string, mode string, duration time.Duration, conns, batch int,
	rate float64, seed uint64, scheme string, slack float64, population int,
	sent, errs, drained *atomic.Int64, record func(time.Duration)) time.Duration {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns * 2,
	}}

	// All backends must serve the same database, or the fan-out would mix
	// incomparable answers; the meta content hash is the check.
	m, err := fetchMeta(client, "http://"+targets[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	for _, target := range targets[1:] {
		mb, err := fetchMeta(client, "http://"+target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", target, err)
			os.Exit(1)
		}
		if mb.DBHash != m.DBHash {
			fmt.Fprintf(os.Stderr, "loadgen: backend databases differ (%s serves %s, %s serves %s)\n",
				targets[0], m.DBHash, target, mb.DBHash)
			os.Exit(1)
		}
	}

	// Draw the deterministic query population: every query is a full
	// co-phase vector (one (bench, phase) per core).
	rng := stats.NewRNG(stats.SeedFrom(seed, "loadgen/queries"))
	queries := make([]decideQuery, population)
	for i := range queries {
		apps := make([]appQuery, m.NumCores)
		for c := range apps {
			b := m.Benches[rng.Intn(len(m.Benches))]
			apps[c] = appQuery{Bench: b.Name, Phase: rng.Intn(b.Phases)}
		}
		queries[i] = decideQuery{Scheme: scheme, Slack: slack, Apps: apps}
	}
	// Pre-encode one request body per distinct batch window so the send
	// loops measure the server, not the client's JSON encoder.
	numBodies := (population + batch - 1) / batch
	bodies := make([][]byte, numBodies)
	for i := range bodies {
		lo := i * batch
		hi := lo + batch
		var win []decideQuery
		for j := lo; j < hi; j++ {
			win = append(win, queries[j%population])
		}
		b, err := json.Marshal(decideRequest{Queries: win})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		bodies[i] = b
	}

	deadline := time.Now().Add(duration)
	// errDrained marks the server's drain signature (503 + Retry-After):
	// the worker stops cleanly instead of counting failures against a
	// server that is shutting down exactly as designed.
	errDrained := fmt.Errorf("server draining")
	post := func(target string, body []byte) error {
		resp, err := client.Post("http://"+target+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
			return errDrained
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	start := time.Now()
	switch mode {
	case "closed":
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				target := targets[c%len(targets)]
				for i := c; time.Now().Before(deadline); i++ {
					t0 := time.Now()
					if err := post(target, bodies[i%len(bodies)]); err != nil {
						if err == errDrained {
							drained.Add(1)
							return
						}
						errs.Add(1)
						continue
					}
					record(time.Since(t0))
					sent.Add(1)
				}
			}(c)
		}
		wg.Wait()
	case "open":
		// The arrival schedule comes from the deterministic workload
		// arrival generator: one arrival per batch at rate/batch batches
		// per second.
		numBatches := int(rate * duration.Seconds() / float64(batch))
		sched := workload.PoissonArrivals([]string{"batch"}, workload.ArrivalOptions{
			Jobs:                numBatches,
			MeanInterarrivalSec: float64(batch) / rate,
			Seed:                seed,
		})
		sem := make(chan struct{}, conns)
		var wg sync.WaitGroup
		for i, a := range sched {
			due := start.Add(time.Duration(a.TimeSec * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := post(targets[i%len(targets)], bodies[i%len(bodies)]); err != nil {
					if err == errDrained {
						drained.Add(1)
					} else {
						errs.Add(1)
					}
					return
				}
				record(time.Since(due)) // from scheduled arrival: includes queueing
				sent.Add(1)
			}(i, due)
		}
		wg.Wait()
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown mode %q\n", mode)
		os.Exit(1)
	}
	return time.Since(start)
}

// runWire drives the binary protocol: each worker owns one TCP connection
// to its round-robin backend and pipelines pre-encoded DecideRequest
// frames back to back. Queries are interned against the server's Meta
// frame (the explicit BenchID table), drawn from the same seeded trace
// stream as the JSON path.
func runWire(targets []string, duration time.Duration, conns, batch int,
	seed uint64, scheme string, slack float64, population int,
	sent, errs, drained, reconnects *atomic.Int64, record func(time.Duration)) time.Duration {
	// The binary protocol's interned scheme ID is core.Scheme's value.
	sc, err := core.ParseScheme(scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	schemeID := uint8(sc)
	m, err := fetchWireMeta(targets[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	for _, target := range targets[1:] {
		mb, err := fetchWireMeta(target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", target, err)
			os.Exit(1)
		}
		if mb.DBHash != m.DBHash {
			fmt.Fprintf(os.Stderr, "loadgen: backend databases differ (%s serves %016x, %s serves %016x)\n",
				targets[0], m.DBHash, target, mb.DBHash)
			os.Exit(1)
		}
	}
	if len(m.Benches) == 0 || m.NCores == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: wire meta is degenerate: %+v\n", m)
		os.Exit(1)
	}

	// Same trace stream as the JSON path: the n-th draw picks the same
	// (bench, phase), here interned to wire IDs.
	n := int(m.NCores)
	rng := stats.NewRNG(stats.SeedFrom(seed, "loadgen/queries"))
	apps := make([]wire.App, population*n)
	for i := 0; i < population; i++ {
		for c := 0; c < n; c++ {
			b := m.Benches[rng.Intn(len(m.Benches))]
			apps[i*n+c] = wire.App{Bench: b.ID, Phase: uint16(rng.Intn(int(b.Phases)))}
		}
	}
	numBodies := (population + batch - 1) / batch
	frames := make([][]byte, numBodies)
	for i := range frames {
		req := wire.DecideRequest{
			Seq:    uint32(i),
			DBHash: m.DBHash,
			Scheme: schemeID,
			NCores: m.NCores,
		}
		if slack != 0 {
			req.Flags = wire.FlagSlackUniform
			req.Slack = slack
		}
		for j := i * batch; j < i*batch+batch; j++ {
			q := j % population
			req.Apps = append(req.Apps, apps[q*n:(q+1)*n]...)
		}
		frames[i] = wire.AppendDecideRequest(nil, &req)
	}

	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			target := targets[c%len(targets)]
			// Connection loss is a normal event when the server restarts or
			// a chaos proxy resets the link: the worker reconnects with
			// seeded jittered backoff and the run reports the count, rather
			// than abandoning the worker on the first broken pipe.
			bo := resilience.Backoff{Base: 20 * time.Millisecond, Max: 500 * time.Millisecond}
			rnd := stats.NewRNG(stats.SeedFrom(seed, fmt.Sprintf("loadgen/reconnect/%d", c)))
			var conn net.Conn
			var r *wire.Reader
			fails := 0
			lose := func() {
				if conn != nil {
					conn.Close()
					conn = nil
				}
				reconnects.Add(1)
				fails++
			}
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			var resp wire.DecideResponse
			for i := c; time.Now().Before(deadline); i++ {
				if conn == nil {
					if fails > 0 {
						time.Sleep(bo.Delay(fails-1, rnd.Float64))
						if !time.Now().Before(deadline) {
							return
						}
					}
					nc, err := net.DialTimeout("tcp", target, time.Second)
					if err != nil {
						lose()
						continue
					}
					conn, r = nc, wire.NewReader(nc)
				}
				frame := frames[i%len(frames)]
				t0 := time.Now()
				if _, err := conn.Write(frame); err != nil {
					lose()
					continue
				}
				typ, payload, err := r.Next()
				if err != nil {
					lose()
					continue
				}
				switch typ {
				case wire.TypeDecideResponse:
					if err := wire.ParseDecideResponse(payload, &resp); err != nil {
						errs.Add(1)
						lose()
						continue
					}
					record(time.Since(t0))
					sent.Add(1)
					fails = 0
				case wire.TypeError:
					_, code, _, perr := wire.ParseError(payload)
					if perr == nil && code == wire.ErrCodeUnavailable {
						// Drain goaway: this backend is leaving for good, so
						// a clean stop beats hammering its closed port.
						drained.Add(1)
						return
					}
					errs.Add(1)
					lose()
					continue
				default:
					errs.Add(1)
					lose()
					continue
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// fetchWireMeta dials the binary port and runs the Hello → Meta
// handshake, retrying briefly so loadgen can be launched alongside a
// still-starting server.
func fetchWireMeta(target string) (*wire.Meta, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		m, err := tryWireMeta(target)
		if err == nil {
			return m, nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("wire port not reachable: %w", lastErr)
}

func tryWireMeta(target string) (*wire.Meta, error) {
	conn, err := net.DialTimeout("tcp", target, time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // best effort
	if _, err := conn.Write(wire.AppendHello(nil)); err != nil {
		return nil, err
	}
	r := wire.NewReader(conn)
	typ, payload, err := r.Next()
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeMeta {
		return nil, fmt.Errorf("hello answered frame type %#x", typ)
	}
	var m wire.Meta
	if err := wire.ParseMeta(payload, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// fetchMeta reads /v1/meta, retrying briefly so loadgen can be launched
// alongside a still-starting server.
func fetchMeta(client *http.Client, base string) (*meta, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := client.Get(base + "/v1/meta")
		if err == nil && resp.StatusCode == http.StatusOK {
			var m meta
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if m.NumCores <= 0 || len(m.Benches) == 0 {
				return nil, fmt.Errorf("meta is degenerate: %+v", m)
			}
			return &m, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("meta status %d", resp.StatusCode)
			resp.Body.Close()
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("server not reachable: %w", lastErr)
}

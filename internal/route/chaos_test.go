// The chaos wall: real service.Servers behind seeded fault-injecting
// chaos proxies, fronted by the resilient routing tier, on both codecs.
// The invariants (the acceptance criteria of the fault-injection issue):
//
//  1. Correctness under faults — every *successful* decide answer through
//     the routed path is bit-identical to an unfaulted control server
//     over the same database (retries and spills may change which
//     replica answers, never what it answers).
//  2. Bounded errors — with retries, breakers and ring spill, the error
//     rate under injected latency/resets/partial writes stays a small
//     fraction of the offered load.
//  3. Heal convergence — a killed backend group is ejected by the health
//     prober (deep healthz goes degraded, traffic spills and still
//     succeeds), and after the backends heal the ring readmits them and
//     placement affinity returns (no further spills).
package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/chaos"
	"qosrma/internal/resilience"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
	"qosrma/internal/wire"
)

var (
	chaosDBOnce sync.Once
	chaosDB     *simdb.DB
	chaosDBErr  error
)

// chaosTestDB builds the small shared 4-core database once per process.
func chaosTestDB(t testing.TB) *simdb.DB {
	t.Helper()
	chaosDBOnce.Do(func() {
		sys := arch.DefaultSystemConfig(4)
		chaosDB, chaosDBErr = simdb.Build(sys, trace.Suite()[:8], simdb.DefaultBuildOptions())
	})
	if chaosDBErr != nil {
		t.Fatal(chaosDBErr)
	}
	return chaosDB
}

// chaosBackend is one real replica: a service.Server with an HTTP and a
// wire listener, each reachable only through its own chaos proxy.
type chaosBackend struct {
	srv      *service.Server
	httpCP   *chaos.Proxy // fronts the HTTP listener
	wireCP   *chaos.Proxy // fronts the wire listener
	httpAddr string       // direct (unfaulted) HTTP address
}

func startChaosBackend(t *testing.T, db *simdb.DB, faults chaos.Faults) *chaosBackend {
	t.Helper()
	srv := service.New(db, nil, service.Options{Shards: 2})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(wln) //nolint:errcheck // exits nil on Close
	httpAddr := strings.TrimPrefix(hs.URL, "http://")
	hcp, err := chaos.NewProxy(httpAddr, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hcp.Close)
	wf := faults
	wf.Seed = faults.Seed + 1
	wcp, err := chaos.NewProxy(wln.Addr().String(), wf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wcp.Close)
	return &chaosBackend{srv: srv, httpCP: hcp, wireCP: wcp, httpAddr: httpAddr}
}

// chaosQueries draws the deterministic workload: reqs[i] is a JSON batch
// and wireFrames[i] the same batch in the binary codec (same seq, same
// co-phase vectors), against the database's bench/phase tables.
func chaosQueries(t *testing.T, db *simdb.DB, seed uint64, count, batch int) ([][]byte, [][]byte) {
	t.Helper()
	n := db.Sys.NumCores
	names := db.BenchNames()
	rng := stats.NewRNG(stats.SeedFrom(seed, "chaos/queries"))
	jsonBodies := make([][]byte, count)
	wireFrames := make([][]byte, count)
	for i := 0; i < count; i++ {
		var jq []service.DecideQuery
		wr := wire.DecideRequest{Seq: uint32(i), Scheme: 3 /* rm2 */, NCores: uint8(n),
			Flags: wire.FlagSlackUniform, Slack: 0.2}
		for b := 0; b < batch; b++ {
			apps := make([]service.AppQuery, n)
			for c := 0; c < n; c++ {
				name := names[rng.Intn(len(names))]
				phase := rng.Intn(db.Analysis(name).NumPhases)
				apps[c] = service.AppQuery{Bench: name, Phase: phase}
				id, ok := db.BenchIDOf(name)
				if !ok {
					t.Fatalf("unknown bench %q", name)
				}
				wr.Apps = append(wr.Apps, wire.App{Bench: uint16(id), Phase: uint16(phase)})
			}
			jq = append(jq, service.DecideQuery{Scheme: "rm2", Slack: 0.2, Apps: apps})
		}
		body, err := json.Marshal(service.DecideRequest{Queries: jq})
		if err != nil {
			t.Fatal(err)
		}
		jsonBodies[i] = body
		wireFrames[i] = wire.AppendDecideRequest(nil, &wr)
	}
	return jsonBodies, wireFrames
}

// canonicalDecide re-marshals a decide response body so split-and-merged
// answers compare bit-for-bit against single-server ones.
func canonicalDecide(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp service.DecideResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode decide response: %v (%s)", err, body)
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func postDecide(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil
	}
	return resp.StatusCode, buf.Bytes()
}

// routeHealth fetches the routing tier's deep healthz.
func routeHealth(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return resp.StatusCode, h.Status
}

// scrapeCounter reads one un-labelled counter from the tier's /metrics.
func scrapeCounter(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %f", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestChaosWall is the end-to-end fault-injection suite. Two replicated
// groups (2×2 real servers) serve through seeded chaos proxies; the
// routed answers are checked bit-for-bit against an unfaulted control
// server, then one whole group is killed and healed.
func TestChaosWall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos wall needs a real database build")
	}
	db := chaosTestDB(t)

	// Control: same database, no chaos, answers straight from the library
	// path. Its wire listener provides the binary ground truth.
	control := service.New(db, nil, service.Options{Shards: 2})
	cs := httptest.NewServer(control)
	defer func() { cs.Close(); control.Close() }()
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go control.ServeWire(cln) //nolint:errcheck // exits nil on Close

	// The faulted fleet: latency jitter on every chunk, occasional hard
	// resets and partial writes. Seeds differ per replica so the fault
	// schedules interleave.
	faults := func(seed uint64) chaos.Faults {
		return chaos.Faults{
			Seed:             seed,
			LatencyMin:       100 * time.Microsecond,
			LatencyMax:       time.Millisecond,
			ResetProb:        0.02,
			PartialWriteProb: 0.01,
		}
	}
	backends := []*chaosBackend{
		startChaosBackend(t, db, faults(11)),
		startChaosBackend(t, db, faults(22)),
		startChaosBackend(t, db, faults(33)),
		startChaosBackend(t, db, faults(44)),
	}
	groups := []Backend{
		{Name: "g0",
			Addrs:     []string{backends[0].httpCP.Addr(), backends[1].httpCP.Addr()},
			WireAddrs: []string{backends[0].wireCP.Addr(), backends[1].wireCP.Addr()}},
		{Name: "g1",
			Addrs:     []string{backends[2].httpCP.Addr(), backends[3].httpCP.Addr()},
			WireAddrs: []string{backends[2].wireCP.Addr(), backends[3].wireCP.Addr()}},
	}
	ring, err := New(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxyWithOptions(ring, nil, Options{
		AttemptTimeout: 5 * time.Second,
		Retries:        3,
		Backoff:        resilience.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond},
		Breaker:        resilience.BreakerOptions{Threshold: 8, Cooldown: 50 * time.Millisecond},
		ProbeInterval:  time.Hour, // probe rounds driven manually via ProbeNow
		Prober:         resilience.ProberOptions{FailThreshold: 1, SuccessThreshold: 1},
		Seed:           7,
	})
	defer p.Close()
	tier := httptest.NewServer(p)
	defer tier.Close()
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ServeWire(wln)

	client := &http.Client{}
	jsonBodies, wireFrames := chaosQueries(t, db, 97, 40, 8)

	// Phase 1: JSON through injected faults. Every 200 must match the
	// control bit-for-bit; failures must stay a small minority.
	jsonErrs := 0
	for i, body := range jsonBodies {
		code, got := postDecide(t, client, tier.URL, body)
		if code != http.StatusOK {
			jsonErrs++
			continue
		}
		ccode, want := postDecide(t, client, cs.URL, body)
		if ccode != http.StatusOK {
			t.Fatalf("control refused batch %d: status %d", i, ccode)
		}
		if !bytes.Equal(canonicalDecide(t, got), canonicalDecide(t, want)) {
			t.Fatalf("batch %d: routed answer differs from control under faults", i)
		}
	}
	if jsonErrs*5 > len(jsonBodies) {
		t.Fatalf("json error rate too high under faults: %d/%d", jsonErrs, len(jsonBodies))
	}

	// Phase 2: the binary codec through the same faulted fleet. The
	// client speaks only to the tier; a fresh connection per hiccup
	// mirrors loadgen's reconnect behaviour.
	controlWire := dialChaosWire(t, cln.Addr().String())
	wireErrs := 0
	var tierWire *chaosWireClient
	for i, frame := range wireFrames {
		if tierWire == nil {
			tierWire = dialChaosWire(t, wln.Addr().String())
		}
		got, ok := tierWire.roundTrip(frame)
		if !ok {
			wireErrs++
			tierWire.close()
			tierWire = nil
			continue
		}
		want, ok := controlWire.roundTrip(frame)
		if !ok {
			t.Fatalf("control wire refused frame %d", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: routed wire payload differs from control under faults", i)
		}
	}
	if tierWire != nil {
		tierWire.close()
	}
	if wireErrs*5 > len(wireFrames) {
		t.Fatalf("wire error rate too high under faults: %d/%d", wireErrs, len(wireFrames))
	}

	// Phase 3: kill group g1 (both replicas, both protocols), eject via a
	// probe round, and verify the fleet degrades without losing answers.
	for _, b := range backends {
		b.httpCP.SetFaults(chaos.Faults{})
		b.wireCP.SetFaults(chaos.Faults{})
	}
	backends[2].httpCP.SetCut(true)
	backends[2].wireCP.SetCut(true)
	backends[3].httpCP.SetCut(true)
	backends[3].wireCP.SetCut(true)
	p.ProbeNow()
	if code, status := routeHealth(t, tier.URL); code != http.StatusServiceUnavailable || status != "degraded" {
		t.Fatalf("healthz after group kill: %d %q, want 503 degraded", code, status)
	}
	for i, body := range jsonBodies[:10] {
		code, got := postDecide(t, client, tier.URL, body)
		if code != http.StatusOK {
			t.Fatalf("batch %d refused during group outage: status %d (spill failed)", i, code)
		}
		_, want := postDecide(t, client, cs.URL, body)
		if !bytes.Equal(canonicalDecide(t, got), canonicalDecide(t, want)) {
			t.Fatalf("batch %d: spilled answer differs from control", i)
		}
	}
	spillWire := dialChaosWire(t, wln.Addr().String())
	for i, frame := range wireFrames[:10] {
		got, ok := spillWire.roundTrip(frame)
		if !ok {
			t.Fatalf("wire frame %d refused during group outage (spill failed)", i)
		}
		want, _ := controlWire.roundTrip(frame)
		if !bytes.Equal(got, want) {
			t.Fatalf("wire frame %d: spilled payload differs from control", i)
		}
	}
	spillWire.close()

	// Phase 4: heal. The prober readmits the group, deep health returns
	// to ok (breaker cooldowns may need a beat), and placement affinity
	// returns — a clean run adds no further ring spills.
	backends[2].httpCP.SetCut(false)
	backends[2].wireCP.SetCut(false)
	backends[3].httpCP.SetCut(false)
	backends[3].wireCP.SetCut(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.ProbeNow()
		if code, status := routeHealth(t, tier.URL); code == http.StatusOK && status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			code, status := routeHealth(t, tier.URL)
			t.Fatalf("ring did not readmit healed group: healthz %d %q", code, status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	spillsBefore := scrapeCounter(t, tier.URL, "qosrmad_route_spills_total")
	for i, body := range jsonBodies[:10] {
		if code, _ := postDecide(t, client, tier.URL, body); code != http.StatusOK {
			t.Fatalf("batch %d refused after heal: status %d", i, code)
		}
	}
	if spillsAfter := scrapeCounter(t, tier.URL, "qosrmad_route_spills_total"); spillsAfter != spillsBefore {
		t.Fatalf("healed ring still spilling: %v -> %v", spillsBefore, spillsAfter)
	}
	if eject := scrapeCounter(t, tier.URL, "qosrmad_route_probe_ejections_total"); eject < 2 {
		t.Fatalf("probe ejections %v, want >= 2 (one per killed replica)", eject)
	}
	if readmit := scrapeCounter(t, tier.URL, "qosrmad_route_probe_readmissions_total"); readmit < 2 {
		t.Fatalf("probe readmissions %v, want >= 2", readmit)
	}
}

// chaosWireClient is a minimal blocking wire client for the wall.
type chaosWireClient struct {
	c net.Conn
	r *wire.Reader
}

func dialChaosWire(t *testing.T, addr string) *chaosWireClient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial wire %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &chaosWireClient{c: c, r: wire.NewReader(c)}
}

func (w *chaosWireClient) close() { w.c.Close() }

// roundTrip writes one frame and returns a copy of the DecideResponse
// payload, or ok=false on any transport- or protocol-level failure.
func (w *chaosWireClient) roundTrip(frame []byte) ([]byte, bool) {
	w.c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // best effort
	if _, err := w.c.Write(frame); err != nil {
		return nil, false
	}
	typ, payload, err := w.r.Next()
	if err != nil || typ != wire.TypeDecideResponse {
		return nil, false
	}
	return append([]byte(nil), payload...), true
}

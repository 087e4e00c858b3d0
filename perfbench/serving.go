package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"qosrma"
	"qosrma/internal/arch"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

const (
	batchSize = 64
	slack     = 0.2
	// schemeRM2 is core.SchemeCoordDVFSCache's wire ID.
	schemeRM2 = 3
)

// servingSpec describes one serving workload.
type servingSpec struct {
	name       string
	codec      string // "wire" or "json"
	tier       bool   // through a qosrmad -route tier
	population int    // distinct co-phase queries
	hot        bool   // fill the LRUs before timing
	sample     int    // windows checked against the library (0 = every window)
}

var servingSpecs = map[string]servingSpec{
	// 512 queries fit the 2 shards x 4096-entry LRUs.
	"wire-hot":  {name: "wire-hot", codec: "wire", population: 512, hot: true},
	"tier-wire": {name: "tier-wire", codec: "wire", tier: true, population: 512, hot: true},
	// tier-json runs in the traced pass only.
	"tier-json": {name: "tier-json", codec: "json", tier: true, population: 512, hot: true},
	// 200 000 queries are far above the 8 192 LRU entries.
	"json-cold": {name: "json-cold", codec: "json", population: 200000, sample: 32},
}

// runner carries one benchmark run's state.
type runner struct {
	opt   options
	procs *procSet

	ref     *qosrma.System
	refHash string

	attempted, failed, mismatches int64
}

func newRunner(opt options) *runner { return &runner{opt: opt, procs: &procSet{}} }

// reference builds the in-process database the answer checks compare
// against. It is built before any server starts, so it never competes
// with a timed phase or set-up.
func (r *runner) reference() (*qosrma.System, error) {
	if r.ref == nil {
		sys, err := qosrma.NewSystem(4)
		if err != nil {
			return nil, err
		}
		r.ref, r.refHash = sys, sys.DB().Fingerprint()
	}
	return r.ref, nil
}

// conns is the generator's connection (and sending goroutine) count.
func conns() int { return min(2, runtime.NumCPU()) }

// setupRuns is how many fresh starts a run times back to back, before any
// load; the median is setup_s. One start costs about a second.
func (r *runner) setupRuns() int {
	if r.opt.smoke {
		return 1
	}
	return 7
}

// loadStacks is how many fresh stacks share a serving run's measured
// seconds.
func (r *runner) loadStacks() int {
	if r.opt.smoke {
		return 1
	}
	return 3
}

// phaseDur is the timed phase length of an untraced run.
func (r *runner) phaseDur() time.Duration {
	if r.opt.smoke {
		return 300 * time.Millisecond
	}
	return time.Duration(r.opt.seconds * float64(time.Second))
}

// ---- servers ----

// stack is one workload's set of server processes.
type stack struct {
	backend, tier           *child
	backendHTTP, backendWir string
	httpAddr, wireAddr      string // what the generator targets
}

func (s *stack) kids() []*child {
	if s.tier != nil {
		return []*child{s.backend, s.tier}
	}
	return []*child{s.backend}
}

// startStack starts a fresh qosrmad (and the tier in front of it) and
// returns once every endpoint answers with the reference database hash.
// The duration is the set-up time: process start until the servers answer.
func (r *runner) startStack(tier bool) (*stack, float64, error) {
	bin := filepath.Join(r.opt.binDir, "qosrmad")
	s := &stack{}
	var err error
	if s.backendHTTP, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	if s.backendWir, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s.backend, err = r.procs.start("qosrmad", bin,
		"-addr", s.backendHTTP, "-wire-addr", s.backendWir, "-audit-interval", "0")
	if err != nil {
		return nil, 0, err
	}
	if err := r.waitReady(s.backend, s.backendHTTP, s.backendWir); err != nil {
		r.stopStack(s)
		return nil, 0, err
	}
	s.httpAddr, s.wireAddr = s.backendHTTP, s.backendWir
	if tier {
		if s.httpAddr, err = freeAddr(); err != nil {
			r.stopStack(s)
			return nil, 0, err
		}
		if s.wireAddr, err = freeAddr(); err != nil {
			r.stopStack(s)
			return nil, 0, err
		}
		// Two groups on one backend keep the tier within two cores while
		// still splitting every batch across groups.
		replica := s.backendHTTP + "|" + s.backendWir
		s.tier, err = r.procs.start("qosrmad-route", bin,
			"-route", replica+";"+replica, "-addr", s.httpAddr, "-wire-addr", s.wireAddr,
			"-audit-interval", "0")
		if err != nil {
			r.stopStack(s)
			return nil, 0, err
		}
		if err := r.waitReady(s.tier, s.httpAddr, s.wireAddr); err != nil {
			r.stopStack(s)
			return nil, 0, err
		}
	}
	return s, since(t0), nil
}

func (r *runner) stopStack(s *stack) {
	if s == nil {
		return
	}
	r.procs.stop(s.tier)
	r.procs.stop(s.backend)
}

// waitReady polls the HTTP meta route and the wire handshake until both
// answer with the reference hash. A different hash means another process
// owns the port; that fails the run rather than measuring it.
func (r *runner) waitReady(c *child, httpAddr, wireAddr string) error {
	deadline := time.Now().Add(90 * time.Second)
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	httpOK, wireOK := false, false
	for {
		if !c.alive() {
			return fmt.Errorf("%s exited during start-up: %s", c.name, c.tail())
		}
		if !httpOK {
			if h, err := metaHash(client, httpAddr); err == nil {
				if h != r.refHash {
					return fmt.Errorf("%s answers db_hash %s, want %s", httpAddr, h, r.refHash)
				}
				httpOK = true
			}
		}
		if httpOK && !wireOK {
			if m, err := wireMeta(wireAddr); err == nil {
				if h := fmt.Sprintf("%016x", m.DBHash); h != r.refHash {
					return fmt.Errorf("%s answers wire db hash %s, want %s", wireAddr, h, r.refHash)
				}
				wireOK = true
			}
		}
		if httpOK && wireOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 90s: %s", c.name, c.tail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metaHash reads db_hash from GET /v1/meta.
func metaHash(client *http.Client, addr string) (string, error) {
	resp, err := client.Get("http://" + addr + "/v1/meta")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("meta status %d", resp.StatusCode)
	}
	var m struct {
		DBHash string `json:"db_hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return "", err
	}
	return m.DBHash, nil
}

// wireMeta runs the Hello → Meta handshake on a fresh connection.
func wireMeta(addr string) (*wire.Meta, error) {
	c, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	c.close()
	return &c.meta, nil
}

// ---- population and requests ----

// population is a seeded set of co-phase queries, interned against the
// reference database (which the servers share, by hash).
type population struct {
	n    int        // cores per query
	apps []wire.App // size*n entries
	size int
}

func drawPopulation(db *simdb.DB, seed uint64, label string, size int) population {
	n := db.Sys.NumCores
	rng := stats.NewRNG(stats.SeedFrom(seed, "perfbench/"+label))
	p := population{n: n, apps: make([]wire.App, size*n), size: size}
	for i := range p.apps {
		id := rng.Intn(db.NumBenches())
		p.apps[i] = wire.App{Bench: uint16(id), Phase: uint16(rng.Intn(db.Benches[id].Analysis.NumPhases))}
	}
	return p
}

// windows is the number of distinct batches: batch w holds queries
// w*batchSize ... w*batchSize+batchSize-1, wrapping around the population.
func (p population) windows() int { return (p.size + batchSize - 1) / batchSize }

// query returns the co-phase vector of query j of window w.
func (p population) query(w, j int) []wire.App {
	q := (w*batchSize + j) % p.size
	return p.apps[q*p.n : (q+1)*p.n]
}

func wireFrames(p population, hash uint64) [][]byte {
	frames := make([][]byte, p.windows())
	for w := range frames {
		req := wire.DecideRequest{
			Seq: uint32(w), DBHash: hash, Scheme: schemeRM2, NCores: uint8(p.n),
			Flags: wire.FlagSlackUniform, Slack: slack,
		}
		for j := 0; j < batchSize; j++ {
			req.Apps = append(req.Apps, p.query(w, j)...)
		}
		frames[w] = wire.AppendDecideRequest(nil, &req)
	}
	return frames
}

func jsonBodies(db *simdb.DB, p population) ([][]byte, error) {
	bodies := make([][]byte, p.windows())
	for w := range bodies {
		var req service.DecideRequest
		for j := 0; j < batchSize; j++ {
			q := service.DecideQuery{Scheme: "rm2", Slack: slack}
			for _, a := range p.query(w, j) {
				q.Apps = append(q.Apps, service.AppQuery{Bench: db.BenchName(simdb.BenchID(a.Bench)), Phase: int(a.Phase)})
			}
			req.Queries = append(req.Queries, q)
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[w] = b
	}
	return bodies, nil
}

// ---- clients ----

// answer is one window's decoded response.
type answer struct {
	decided  []bool
	settings []arch.Setting // batchSize*n entries
}

// conn is one generator connection: one request in flight at a time.
type conn interface {
	roundTrip(w int) error
	answer(db *simdb.DB) (*answer, error) // decodes the last response
	close()
}

// errFatal marks a connection that cannot carry more requests.
var errFatal = errors.New("connection lost")

type wireConn struct {
	c      net.Conn
	r      *wire.Reader
	meta   wire.Meta
	frames [][]byte
	resp   wire.DecideResponse
}

// dialWire connects and completes the Hello → Meta handshake, so neither
// the dial nor the handshake lands inside a timed phase.
func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	wc := &wireConn{c: c, r: wire.NewReader(c)}
	if err := c.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := c.Write(wire.AppendHello(nil)); err != nil {
		c.Close()
		return nil, err
	}
	typ, payload, err := wc.r.Next()
	if err == nil && typ != wire.TypeMeta {
		err = fmt.Errorf("hello answered frame type %#x", typ)
	}
	if err == nil {
		err = wire.ParseMeta(payload, &wc.meta)
	}
	if err == nil {
		err = c.SetDeadline(time.Time{})
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return wc, nil
}

func (wc *wireConn) roundTrip(w int) error {
	if _, err := wc.c.Write(wc.frames[w]); err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	typ, payload, err := wc.r.Next()
	if err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	switch typ {
	case wire.TypeDecideResponse:
		if err := wire.ParseDecideResponse(payload, &wc.resp); err != nil {
			return fmt.Errorf("%w: %v", errFatal, err)
		}
		if wc.resp.Seq != uint32(w) || len(wc.resp.Decided) != batchSize {
			return fmt.Errorf("response seq %d with %d answers for window %d", wc.resp.Seq, len(wc.resp.Decided), w)
		}
		return nil
	case wire.TypeError:
		_, code, msg, _ := wire.ParseError(payload)
		return fmt.Errorf("error frame %v: %s", code, msg)
	}
	return fmt.Errorf("%w: unexpected frame type %#x", errFatal, typ)
}

func (wc *wireConn) answer(*simdb.DB) (*answer, error) {
	a := &answer{decided: append([]bool(nil), wc.resp.Decided...)}
	for _, s := range wc.resp.Settings {
		a.settings = append(a.settings, arch.Setting{Size: arch.CoreSize(s.Size), FreqIdx: int(s.Freq), Ways: int(s.Ways)})
	}
	return a, nil
}

func (wc *wireConn) close() { wc.c.Close() }

type jsonConn struct {
	client *http.Client
	url    string
	bodies [][]byte
	buf    bytes.Buffer
}

func newJSONConn(addr string, bodies [][]byte) *jsonConn {
	return &jsonConn{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url:    "http://" + addr + "/v1/decide",
		bodies: bodies,
	}
}

func (jc *jsonConn) roundTrip(w int) error {
	resp, err := jc.client.Post(jc.url, "application/json", bytes.NewReader(jc.bodies[w]))
	if err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	jc.buf.Reset()
	_, err = jc.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%w: %v", errFatal, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, jc.buf.String())
	}
	return nil
}

func (jc *jsonConn) answer(db *simdb.DB) (*answer, error) {
	var resp service.DecideResponse
	if err := json.Unmarshal(jc.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != batchSize {
		return nil, fmt.Errorf("%d results for a batch of %d", len(resp.Results), batchSize)
	}
	a := &answer{}
	for _, res := range resp.Results {
		a.decided = append(a.decided, res.Decided)
		for _, s := range res.Settings {
			size, ok := sizeByName[s.Size]
			if !ok || s.FreqIdx < 0 || s.FreqIdx >= len(db.Sys.DVFS) || db.Sys.DVFS[s.FreqIdx].FreqGHz != s.FreqGHz {
				return nil, fmt.Errorf("setting %+v does not name a lattice point", s)
			}
			a.settings = append(a.settings, arch.Setting{Size: size, FreqIdx: s.FreqIdx, Ways: s.Ways})
		}
	}
	return a, nil
}

func (jc *jsonConn) close() { jc.client.CloseIdleConnections() }

var sizeByName = map[string]arch.CoreSize{
	arch.SizeSmall.String():  arch.SizeSmall,
	arch.SizeMedium.String(): arch.SizeMedium,
	arch.SizeLarge.String():  arch.SizeLarge,
}

// openConns opens the generator's connections to addr, each warmed by one
// untimed request so dials and handshakes stay out of every latency.
func (r *runner) openConns(codec, addr string, frames, bodies [][]byte) ([]conn, error) {
	var out []conn
	for i := 0; i < conns(); i++ {
		var c conn
		if codec == "wire" {
			wc, err := dialWire(addr)
			if err != nil {
				closeAll(out)
				return nil, err
			}
			wc.frames = frames
			c = wc
		} else {
			c = newJSONConn(addr, bodies)
		}
		out = append(out, c)
		r.attempted += batchSize
		if err := c.roundTrip(i % max(len(frames), len(bodies))); err != nil {
			r.failed += batchSize
			closeAll(out)
			return nil, fmt.Errorf("first request: %w", err)
		}
	}
	return out, nil
}

func closeAll(cs []conn) {
	for _, c := range cs {
		c.close()
	}
}

// ---- closed-loop phase ----

// phaseResult is one timed closed-loop phase.
type phaseResult struct {
	queries int64     // answered queries
	elapsed float64   // seconds
	lats    []float64 // batch latencies in seconds, sorted
	// rates and tickLats are the query rates and the batch latencies of
	// the phase's 40 ticks, by completion time.
	rates    []float64
	tickLats [][]float64
	answers  map[int]*answer
	// cpu is the generator's CPU seconds over the phase.
	cpu float64
}

// qps is the interquartile mean of the per-tick query rates: steadier
// than the whole-phase mean when a neighbour briefly takes the CPU, and
// equal to it when the rate is constant.
func (p *phaseResult) qps() float64 {
	if len(p.rates) < 4 {
		return float64(p.queries) / p.elapsed
	}
	rs := append([]float64(nil), p.rates...)
	sort.Float64s(rs)
	mid := rs[len(rs)/4 : len(rs)-len(rs)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// tickQuantile is the median over ticks of each tick's q-quantile batch
// latency: a burst of contention moves a few ticks, not the median.
func (p *phaseResult) tickQuantile(q float64) float64 {
	var per []float64
	for _, l := range p.tickLats {
		if len(l) >= 10 {
			sort.Float64s(l)
			per = append(per, quantile(l, q))
		}
	}
	if len(per) < 3 {
		return quantile(p.lats, q)
	}
	return median(per)
}

func (p *phaseResult) meanLat() float64 {
	s := 0.0
	for _, v := range p.lats {
		s += v
	}
	return s / float64(len(p.lats))
}

// runPhase drives every connection in a closed loop for dur: each sends
// its next batch as soon as the previous one is answered, because each
// resource-manager caller waits for its decision. Windows marked in
// sample have their first answer kept for the answer checks.
func (r *runner) runPhase(cs []conn, db *simdb.DB, windows int, dur time.Duration, sample []bool) *phaseResult {
	type workerOut struct {
		lats              []float64
		doneAt            []time.Duration // completion of each batch, from start
		attempted, failed int64
		answers           map[int]*answer
		bad               int64
	}
	outs := make([]workerOut, len(cs))
	cpu0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(dur)

	var wg sync.WaitGroup
	for ci := range cs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			o := &outs[ci]
			o.lats = make([]float64, 0, 1<<14)
			o.answers = map[int]*answer{}
			c := cs[ci]
			for i := ci * windows / len(cs); ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				w := i % windows
				o.attempted += batchSize
				if err := c.roundTrip(w); err != nil {
					o.failed += batchSize
					if errors.Is(err, errFatal) {
						return
					}
					continue
				}
				t1 := time.Now()
				o.lats = append(o.lats, t1.Sub(t0).Seconds())
				o.doneAt = append(o.doneAt, t1.Sub(start))
				if sample != nil && sample[w] && o.answers[w] == nil {
					a, err := c.answer(db)
					if err != nil {
						o.bad += batchSize
						a = &answer{}
					}
					o.answers[w] = a
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := since(start)

	// Completions after the deadline belong to no whole tick.
	tick := max(dur/40, 25*time.Millisecond)
	res := &phaseResult{
		elapsed: elapsed, answers: map[int]*answer{}, cpu: selfCPUSeconds() - cpu0,
		rates:    make([]float64, dur/tick),
		tickLats: make([][]float64, dur/tick),
	}
	for _, o := range outs {
		res.queries += int64(len(o.lats)) * batchSize
		res.lats = append(res.lats, o.lats...)
		for i, at := range o.doneAt {
			if k := int(at / tick); k < len(res.rates) {
				res.rates[k] += batchSize / tick.Seconds()
				res.tickLats[k] = append(res.tickLats[k], o.lats[i])
			}
		}
		r.attempted += o.attempted
		r.failed += o.failed
		r.mismatches += o.bad
		for w, a := range o.answers {
			if res.answers[w] == nil {
				res.answers[w] = a
			}
		}
	}
	sort.Float64s(res.lats)
	return res
}

// ---- generators ----

// generator is warmed load attached to one endpoint: the population, its
// pre-encoded requests and the open connections.
type generator struct {
	r    *runner
	db   *simdb.DB
	spec servingSpec
	pop  population
	cs   []conn
	// frames and bodies are the pre-encoded requests, one per window.
	frames, bodies [][]byte
}

// openGen draws the spec's population, encodes its requests, opens
// the connections to the stack's endpoint for the spec's codec (or to the
// backend itself when direct is set) and warms them. Hot specs get every
// key past the TinyLFU doorkeeper and into its shard's LRU first.
func (r *runner) openGen(sys *qosrma.System, st *stack, spec servingSpec, direct bool) (*generator, error) {
	db := sys.DB()
	g := &generator{r: r, db: db, spec: spec, pop: drawPopulation(db, r.opt.seed, spec.name, spec.population)}
	addr := st.httpAddr
	if direct {
		addr = st.backendHTTP
	}
	if spec.codec == "wire" {
		addr = st.wireAddr
		if direct {
			addr = st.backendWir
		}
		var h uint64
		if _, err := fmt.Sscanf(r.refHash, "%x", &h); err != nil {
			return nil, err
		}
		g.frames = wireFrames(g.pop, h)
	} else {
		var err error
		if g.bodies, err = jsonBodies(db, g.pop); err != nil {
			return nil, err
		}
	}
	var err error
	if g.cs, err = r.openConns(spec.codec, addr, g.frames, g.bodies); err != nil {
		return nil, err
	}
	if spec.hot {
		// Three passes: the doorkeeper admits a key on its second sighting.
		for pass := 0; pass < 3; pass++ {
			for w := 0; w < g.pop.windows(); w++ {
				r.attempted += batchSize
				if err := g.cs[0].roundTrip(w); err != nil {
					r.failed += batchSize
					g.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	warm := 500 * time.Millisecond
	if r.opt.smoke {
		warm = 50 * time.Millisecond
	}
	g.phase(warm, nil)
	return g, nil
}

func (g *generator) close() { closeAll(g.cs) }

func (g *generator) phase(dur time.Duration, sample []bool) *phaseResult {
	return g.r.runPhase(g.cs, g.db, g.pop.windows(), dur, sample)
}

// sample marks the windows whose answers are checked: all of them for
// small populations, spec.sample seeded picks otherwise.
func (g *generator) sample() []bool {
	s := make([]bool, g.pop.windows())
	if g.spec.sample == 0 || g.spec.sample >= len(s) {
		for i := range s {
			s[i] = true
		}
		return s
	}
	rng := stats.NewRNG(stats.SeedFrom(g.r.opt.seed, "perfbench/check/"+g.spec.name))
	for _, w := range rng.Perm(len(s))[:g.spec.sample] {
		s[w] = true
	}
	return s
}

// check compares the phase's sampled answers with the library. Sampled
// windows the timed phase never reached are asked once more, untimed.
func (g *generator) check(ph *phaseResult, sample []bool) checkResult {
	r := g.r
	for w, want := range sample {
		if !want || ph.answers[w] != nil {
			continue
		}
		r.attempted += batchSize
		if err := g.cs[0].roundTrip(w); err != nil {
			r.failed += batchSize
			continue
		}
		a, err := g.cs[0].answer(g.db)
		if err != nil {
			r.mismatches += batchSize
			continue
		}
		ph.answers[w] = a
	}
	res := checkAnswers(g.db, g.pop, ph.answers)
	r.mismatches += res.mismatches
	return res
}

// ---- the untraced serving workload ----

// servingRun is everything one serving workload measured: one timed phase
// on each of several freshly started stacks.
type servingRun struct {
	spec   servingSpec
	setups []float64
	rssMB  []float64
	cpuUS  []float64 // server CPU µs per answered query, per stack
	phases []*phaseResult
	checks checkResult
}

// runServing first times setupRuns fresh starts of the workload's stack
// back to back, then starts loadStacks more. Each of those gets its share
// of the measured seconds and the metrics are medians over them: on two
// cores, how the kernel happens to place a fresh set of busy processes
// moves a whole phase's throughput, so one stack per run would make that
// placement the run's result.
func (r *runner) runServing(spec servingSpec) (metrics, error) {
	sys, err := r.reference()
	if err != nil {
		return nil, err
	}
	run := &servingRun{spec: spec}
	for i := 0; i < r.setupRuns(); i++ {
		st, setup, err := r.startStack(spec.tier)
		r.stopStack(st)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, setup)
	}
	n := r.loadStacks()
	for i := 0; i < n; i++ {
		if err := r.serveOnce(sys, run, r.phaseDur()/time.Duration(n)); err != nil {
			return nil, err
		}
	}
	m := metrics{}
	run.e2e(m)
	fmt.Printf("%s %s\n", spec.name, run.describe())
	return m, nil
}

// serveOnce starts a fresh stack, runs one checked phase on it and stops
// it.
func (r *runner) serveOnce(sys *qosrma.System, run *servingRun, dur time.Duration) error {
	st, _, err := r.startStack(run.spec.tier)
	if err != nil {
		return err
	}
	defer r.stopStack(st)
	g, err := r.openGen(sys, st, run.spec, false)
	if err != nil {
		return err
	}
	defer g.close()
	sample := g.sample()
	cpu0, err := stackSum(st, cpuSeconds)
	if err != nil {
		return err
	}
	ph := g.phase(dur, sample)
	cpu1, err := stackSum(st, cpuSeconds)
	if err != nil {
		return err
	}
	c := g.check(ph, sample)
	rss, err := stackSum(st, peakRSSMB)
	if err != nil {
		return err
	}
	run.cpuUS = append(run.cpuUS, 1e6*(cpu1-cpu0)/float64(ph.queries))
	run.rssMB = append(run.rssMB, rss)
	run.phases = append(run.phases, ph)
	run.checks.checked += c.checked
	run.checks.mismatches += c.mismatches
	run.checks.savingsPct = c.savingsPct // the same answers every time
	return nil
}

// stackSum sums a per-process reading (cpuSeconds, peakRSSMB) over the
// stack's processes.
func stackSum(st *stack, read func(pid int) (float64, error)) (float64, error) {
	total := 0.0
	for _, c := range st.kids() {
		v, err := read(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// each applies f to every phase and returns the median.
func (s *servingRun) each(f func(*phaseResult) float64) float64 {
	var xs []float64
	for _, p := range s.phases {
		xs = append(xs, f(p))
	}
	return median(xs)
}

// e2e fills the end-to-end metrics.
func (s *servingRun) e2e(m metrics) {
	m.set("setup_s", median(s.setups), "s")
	m.set("peak_rss_mb", median(s.rssMB), "MB")
	m.set("cpu_us_per_op", median(s.cpuUS), "us")
	m.set("p50_ms", s.each(func(p *phaseResult) float64 { return p.tickQuantile(0.5) })*1e3, "ms")
	m.set("savings_pct", s.checks.savingsPct, "%")
}

// describe renders the workload's numbers under their codec names, with
// the pooled tail percentiles and the sample count each rests on.
func (s *servingRun) describe() string {
	var l []float64
	for _, p := range s.phases {
		l = append(l, p.lats...)
	}
	sort.Float64s(l)
	n := len(l)
	c := s.spec.codec
	return fmt.Sprintf("setups_s=%.3f server_cpu_us_per_query=%.4f per_stack=%.3f ", s.setups, median(s.cpuUS), s.cpuUS) + fmt.Sprintf("%s_qps=%.0f 1/s %s_p50_ms=%.4f %s_p90_ms=%.4f %s_p99_ms=%.4f (%d samples beyond) %s_p99.9_ms=%.4f (%d samples beyond) batches=%d stacks=%d checked=%d",
		c, s.each((*phaseResult).qps), c, s.each(func(p *phaseResult) float64 { return p.tickQuantile(0.5) })*1e3,
		c, s.each(func(p *phaseResult) float64 { return p.tickQuantile(0.9) })*1e3,
		c, quantile(l, 0.99)*1e3, n/100, c, quantile(l, 0.999)*1e3, n/1000, n, len(s.phases), s.checks.checked)
}

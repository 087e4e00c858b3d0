package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"qosrma/internal/ops"
	"qosrma/internal/resilience"
	"qosrma/internal/service"
	"qosrma/internal/stats"
)

// Proxy is the routing tier's http.Handler: it speaks the decision
// service's own JSON API, owns no database, and makes no decisions
// itself. POST /v1/decide bodies are split by the ring — each query goes
// to the group owning its canonical key — and the per-group sub-batches
// are forwarded concurrently and merged back into request order. Every
// other request is forwarded whole to a rotating replica, so operators
// can point any client at the proxy.
//
// Every forward runs through the tier's one failover core (lane.failover,
// shared with the wire proxy): a per-attempt deadline, bounded retries
// with jittered exponential backoff (only for idempotent requests —
// GET/HEAD and the pure-compute decide/score POSTs; sweeps and admin
// mutations get exactly one attempt), a circuit breaker per replica, and
// optional active health probing that ejects dead replicas from
// rotation. When every replica of a group is out, its keys spill to the
// next available group on the ring — correct because the whole fleet
// serves one database — and return the moment the owner heals. A client
// that gives up mid-forward is not counted against the replica.
//
// Two endpoints are answered locally instead of forwarded: /v1/healthz
// reports the proxy's own deep health (a group with zero available
// replicas makes the tier degraded) and /metrics exposes the routing
// tier's counters.
type Proxy struct {
	lane // the JSON lane: every replica, its HTTP breakers and counters

	ring   *Ring
	client *http.Client
	opt    Options

	replicas []replica
	prober   *resilience.Prober
	wire     *WireProxy // attached by ServeWire; shares health and the failover core

	reg     *ops.Registry
	spills  *ops.Counter // decide queries routed off-owner (group down)
	breakTo map[resilience.BreakerState]*ops.Counter

	rngMu sync.Mutex
	rng   *stats.RNG
}

// replica is one flattened backend address. Health (prober) and breaker
// state are per replica, not per group: one dead process must not poison
// its siblings.
type replica struct {
	group    int
	addr     string // HTTP host:port
	wireAddr string // binary wire host:port ("" = none)
}

// Options tunes the proxy's resilience behaviour. The zero value selects
// the defaults noted per field.
type Options struct {
	// AttemptTimeout bounds one forward attempt (default 2s; negative
	// disables the per-attempt deadline — the client's own context still
	// applies).
	AttemptTimeout time.Duration
	// Retries is the extra attempts granted to idempotent requests after
	// the first failure (default 2; negative disables retries).
	Retries int
	// Backoff schedules the delay between attempts.
	Backoff resilience.Backoff
	// Breaker configures every replica's circuit breaker.
	Breaker resilience.BreakerOptions
	// ProbeInterval, when positive, enables active health probing of
	// every replica's /v1/healthz at the interval (default 0 = off;
	// passive breaker-based isolation still applies).
	ProbeInterval time.Duration
	// Prober tunes the probe thresholds (Interval is taken from
	// ProbeInterval).
	Prober resilience.ProberOptions
	// Seed keys the backoff-jitter stream for reproducible schedules.
	Seed uint64
}

func (o Options) attemptTimeout() time.Duration {
	if o.AttemptTimeout == 0 {
		return 2 * time.Second
	}
	if o.AttemptTimeout < 0 {
		return 0
	}
	return o.AttemptTimeout
}

func (o Options) retries() int {
	if o.Retries == 0 {
		return 2
	}
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

// NewProxyWithOptions builds a proxy over the ring. Call Close when done
// (it stops the prober, when one is running).
func NewProxyWithOptions(ring *Ring, client *http.Client, opt Options) *Proxy {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		}}
	}
	p := &Proxy{
		ring:   ring,
		client: client,
		opt:    opt,
		reg:    ops.NewRegistry(),
		rng:    stats.NewRNG(stats.SeedFrom(opt.Seed, "route/jitter")),
	}
	p.initMetrics()
	for g, b := range ring.Backends() {
		for i, addr := range b.Addrs {
			var wireAddr string
			if len(b.WireAddrs) > i {
				wireAddr = b.WireAddrs[i]
			}
			p.replicas = append(p.replicas, replica{group: g, addr: addr, wireAddr: wireAddr})
		}
	}
	p.lane.build(p, func(*replica) bool { return true })
	if opt.ProbeInterval > 0 {
		popt := opt.Prober
		popt.Interval = opt.ProbeInterval
		p.prober = resilience.NewProber(len(p.replicas), p.probeReplica, popt, nil)
		p.prober.Start()
	}
	p.registerReplicaMetrics()
	return p
}

// Close stops background work (the health prober and any wire proxy).
func (p *Proxy) Close() {
	if p.prober != nil {
		p.prober.Stop()
	}
	if p.wire != nil {
		p.wire.Close()
	}
}

// ProbeNow forces one synchronous probe round (no-op with probing off).
// Tests and operators use it to observe ejection without waiting an
// interval.
//
//qosrma:allow(testonly) the resilience and chaos tests observe ejection without waiting an interval
func (p *Proxy) ProbeNow() {
	if p.prober != nil {
		p.prober.RunNow()
	}
}

func (p *Proxy) initMetrics() {
	p.requests = p.reg.Counter("qosrmad_route_requests_total",
		"Decide requests handled by the routing tier.", "")
	p.splits = p.reg.Counter("qosrmad_route_splits_total",
		"Decide requests that spanned more than one backend group.", "")
	p.exhausted = p.reg.Counter("qosrmad_route_exhausted_total",
		"Forwards that exhausted every attempt and answered an error.", "")
	p.retried = p.reg.Counter("qosrmad_route_retries_total",
		"Forward attempts retried after a failure.", "")
	p.failed = p.reg.Counter("qosrmad_route_attempt_failures_total",
		"Individual forward attempts that failed (transport error, truncated body, or 5xx).", "")
	p.spills = p.reg.Counter("qosrmad_route_spills_total",
		"Decide forwards served off-owner because the owning group had no available replica.", "")
	p.breakTo = map[resilience.BreakerState]*ops.Counter{}
	for _, s := range []resilience.BreakerState{
		resilience.BreakerClosed, resilience.BreakerOpen, resilience.BreakerHalfOpen,
	} {
		p.breakTo[s] = p.reg.Counter("qosrmad_route_breaker_transitions_total",
			"Replica circuit-breaker transitions by destination state.",
			ops.Labels("to", s.String()))
	}
	p.reg.CounterFunc("qosrmad_route_probe_ejections_total",
		"Replicas ejected from rotation by the health prober.", "",
		func() float64 { e, _ := p.proberStats(); return float64(e) })
	p.reg.CounterFunc("qosrmad_route_probe_readmissions_total",
		"Ejected replicas readmitted to rotation by the health prober.", "",
		func() float64 { _, r := p.proberStats(); return float64(r) })
}

// newBreaker builds a replica breaker that also counts its transitions.
func (p *Proxy) newBreaker() *resilience.Breaker {
	bopt := p.opt.Breaker
	prev := bopt.OnStateChange
	bopt.OnStateChange = func(from, to resilience.BreakerState) {
		p.breakTo[to].Inc()
		if prev != nil {
			prev(from, to)
		}
	}
	return resilience.NewBreaker(bopt)
}

// registerReplicaMetrics runs after the replica slice is final.
func (p *Proxy) registerReplicaMetrics() {
	for i := range p.replicas {
		rep := &p.replicas[i]
		ri := i
		labels := ops.Labels("group", p.ring.Backends()[rep.group].Name, "replica", rep.addr)
		p.reg.GaugeFunc("qosrmad_route_replica_available",
			"1 when the replica is in rotation (probe-healthy, breaker not open).",
			labels, func() float64 {
				if p.replicaAvailable(ri) {
					return 1
				}
				return 0
			})
	}
}

func (p *Proxy) proberStats() (uint64, uint64) {
	if p.prober == nil {
		return 0, 0
	}
	return p.prober.Stats()
}

// probeReplica is the active health probe: GET /v1/healthz on the
// replica, healthy iff it answers 200 (a draining or degraded backend
// answers 503 and leaves rotation until it recovers). The verdict also
// feeds the replica's breaker: a replica whose breaker opened under
// live traffic gets no more attempts (the pick loop skips unavailable
// replicas), so without this a breaker opened just before an ejection
// would stay open forever and block readmission — the passing probe is
// the evidence that closes it.
func (p *Proxy) probeReplica(ctx context.Context, ri int) error {
	err := p.probeReplicaHTTP(ctx, ri)
	if err != nil {
		p.breakers[ri].Failure()
	} else {
		p.breakers[ri].Success()
	}
	return err
}

func (p *Proxy) probeReplicaHTTP(ctx context.Context, ri int) error {
	//qosrma:allow(ctxdeadline) ctx comes from Prober.RunNow, which wraps every probe in context.WithTimeout(p.opt.Timeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+p.replicas[ri].addr+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

// replicaHealthy reports the prober's verdict (true when probing is off
// — the breaker still isolates passively).
func (p *Proxy) replicaHealthy(ri int) bool {
	return p.prober == nil || p.prober.Healthy(ri)
}

// replicaAvailable reports whether the replica is in rotation:
// probe-healthy and breaker not refusing.
func (p *Proxy) replicaAvailable(ri int) bool {
	return p.replicaHealthy(ri) && p.breakers[ri].State() != resilience.BreakerOpen
}

// groupAvailable reports whether any replica of group g is in rotation.
func (p *Proxy) groupAvailable(g int) bool {
	for _, ri := range p.groups[g] {
		if p.replicaAvailable(ri) {
			return true
		}
	}
	return false
}

// Stats reports decide requests handled, how many spanned multiple
// groups, and how many forwards exhausted every attempt.
func (p *Proxy) Stats() (requests, splits, failures uint64) {
	return p.requests.Value(), p.splits.Value(), p.exhausted.Value()
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/decide":
		p.serveDecide(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/v1/healthz":
		p.serveHealthz(w)
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		p.reg.ServeHTTP(w, r)
	default:
		p.forwardWhole(w, r)
	}
}

// RoutingKey renders the canonical routing form of one query: lowercased
// scheme, model, slack vector and the (bench, phase) co-phase vector. It
// is the name-interned analog of the service's internal cache key — the
// proxy has no database to intern against — and the only property the
// tier needs: equal queries land on equal groups, so each backend's
// decision LRU sees a stable partition of the key space.
//
//qosrma:allow(testonly) perfbench calls it
func RoutingKey(dst []byte, q *service.DecideQuery) []byte {
	dst = appendKeyPrefix(dst, q.Scheme, q.Model, q.Slack, q.Slacks)
	for _, app := range q.Apps {
		dst = appendKeyApp(dst, app.Bench, app.Phase)
	}
	return dst
}

// queryHashes appends Hash(RoutingKey(q)) of every query q to hs, hashing
// a prefix only when a query's configuration differs bitwise from the
// previous query's (so slacks 0 and -0 never share one).
func queryHashes(hs []uint64, queries []service.DecideQuery) []uint64 {
	var key []byte
	var prefix uint64
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range queries {
		q := &queries[i]
		if i == 0 || q.Scheme != queries[i-1].Scheme || q.Model != queries[i-1].Model ||
			!sameBits(q.Slack, queries[i-1].Slack) || !slices.EqualFunc(q.Slacks, queries[i-1].Slacks, sameBits) {
			key = appendKeyPrefix(key[:0], q.Scheme, q.Model, q.Slack, q.Slacks)
			prefix = Hash(key)
		}
		h := prefix
		for _, app := range q.Apps {
			h = hashKeyApp(h, app.Bench, app.Phase)
		}
		hs = append(hs, h)
	}
	return hs
}

// picker maps routing-key hashes to owning groups over one snapshot of
// group availability, so every query in a batch sees one fleet view.
// avail is nil when every group is up: pick is then Ring.PickHash.
type picker struct {
	p     *Proxy
	avail []bool
}

// groupPicker returns a picker; it allocates only when a group is down.
func (p *Proxy) groupPicker() picker {
	for g := range p.groups {
		if !p.groupAvailable(g) {
			avail := make([]bool, len(p.groups))
			for g := range avail {
				avail[g] = p.groupAvailable(g)
			}
			return picker{p: p, avail: avail}
		}
	}
	return picker{p: p}
}

// pick returns the available group owning hash h (see PickAvailableHash).
//
//qosrma:noalloc
func (pk picker) pick(h uint64) int {
	owner := pk.p.ring.PickHash(h)
	if pk.avail == nil || pk.avail[owner] {
		return owner
	}
	g := pk.p.ring.PickAvailableHash(h, pk.available)
	if g != owner {
		pk.p.spills.Inc()
	}
	return g
}

func (pk picker) available(g int) bool { return pk.avail[g] }

// assign appends each query's index to its owning group's list, given
// the queries' routing-key hashes. It returns the first query's group
// and whether any query is owned by another.
//
//qosrma:noalloc
func (pk picker) assign(groups [][]int, hashes []uint64) (first int, split bool) {
	first = -1
	for qi, h := range hashes {
		g := pk.pick(h)
		groups[g] = append(groups[g], qi)
		if first == -1 {
			first = g
		} else if g != first {
			split = true
		}
	}
	return first, split
}

// serveDecide splits a decide request by owning group and merges the
// answers. A request whose queries all map to one group is forwarded
// verbatim (the common case under key-affine clients).
func (p *Proxy) serveDecide(w http.ResponseWriter, r *http.Request) {
	p.requests.Inc()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	var req service.DecideRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeProxyError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	single := len(req.Queries) == 0
	queries := req.Queries
	if single {
		queries = []service.DecideQuery{req.DecideQuery}
	}

	groups := make([][]int, len(p.groups))
	distinct, split := p.groupPicker().assign(groups, queryHashes(make([]uint64, 0, len(queries)), queries))

	if !split {
		// One owning group: forward the original body untouched so the
		// backend sees exactly what the client sent (single/batch shape
		// included).
		resp, err := p.forward(r.Context(), distinct, http.MethodPost, "/v1/decide", "application/json", body, true)
		if err != nil {
			p.writeForwardError(w, err)
			return
		}
		writeBackendResponse(w, resp)
		return
	}
	p.splits.Inc()

	// Fan the sub-batches out concurrently; merge preserves request order
	// because each group's answer slice is index-aligned with the subset
	// it was sent.
	type groupResult struct {
		g    int
		resp service.DecideResponse
		err  error
		back *backendResponse
	}
	var wg sync.WaitGroup
	results := make([]groupResult, 0, len(groups))
	for g, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		results = append(results, groupResult{g: g})
	}
	for i := range results {
		wg.Add(1)
		go func(gr *groupResult) {
			defer wg.Done()
			idx := groups[gr.g]
			sub := service.DecideRequest{Queries: make([]service.DecideQuery, len(idx))}
			for j, qi := range idx {
				sub.Queries[j] = queries[qi]
			}
			b, err := json.Marshal(&sub)
			if err != nil {
				gr.err = err
				return
			}
			back, err := p.forward(r.Context(), gr.g, http.MethodPost, "/v1/decide", "application/json", b, true)
			if err != nil {
				gr.err = err
				return
			}
			gr.back = back
			if back.code == http.StatusOK {
				gr.err = json.Unmarshal(back.body, &gr.resp)
			}
		}(&results[i])
	}
	wg.Wait()

	merged := service.DecideResponse{Results: make([]service.DecideAnswer, len(queries))}
	for _, gr := range results {
		if gr.err != nil {
			p.writeForwardError(w,
				fmt.Errorf("backend group %s: %w", p.ring.Backends()[gr.g].Name, gr.err))
			return
		}
		if gr.back.code != http.StatusOK {
			// Propagate the backend's own error verbatim (validation
			// failures carry the offending sub-batch index, which is still
			// meaningful to the caller after remapping is lost — the error
			// text names the query content).
			writeBackendResponse(w, gr.back)
			return
		}
		idx := groups[gr.g]
		if len(gr.resp.Results) != len(idx) {
			writeProxyError(w, http.StatusBadGateway,
				fmt.Errorf("backend group %s answered %d results for %d queries",
					p.ring.Backends()[gr.g].Name, len(gr.resp.Results), len(idx)))
			return
		}
		for j, qi := range idx {
			merged.Results[qi] = gr.resp.Results[j]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(&merged) //nolint:errcheck // client gone; nothing to report
}

// backendResponse is one fully-buffered backend answer. Buffering is
// deliberate: a connection reset mid-body is then an attempt failure the
// retry loop handles (next replica) instead of a truncated response
// relayed to the client.
type backendResponse struct {
	code        int
	contentType string
	retryAfter  string
	body        []byte
}

// attempt runs exactly one forward to one replica under the per-attempt
// deadline. Transport errors and truncated bodies are errors; any
// completed answer is returned, whatever its status.
func (p *Proxy) attempt(ctx context.Context, ri int, method, uri, contentType string, body []byte) (*backendResponse, error) {
	addr := p.replicas[ri].addr
	if t := p.opt.attemptTimeout(); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	//qosrma:allow(ctxdeadline) deadline is attached above unless the operator set AttemptTimeout<0 to disable it; the inbound request's ctx still cancels the attempt
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+uri, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", addr, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// The status line arrived but the body did not (reset mid-body):
		// a replica failure like any other, retried on the next replica
		// rather than relayed as a truncated answer.
		return nil, fmt.Errorf("replica %s: response truncated: %w", addr, err)
	}
	return &backendResponse{
		code:        resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        payload,
	}, nil
}

// rnd is the locked jitter source for backoff delays.
func (p *Proxy) rnd() float64 {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Float64()
}

// forward is the JSON adapter over the failover core: one request to
// group g (anyGroup = any replica), with the configured extra attempts
// for idempotent requests and exactly one for the rest. A 5xx answer is
// an attempt failure like a transport error, but relayed verbatim when
// attempts run out (the backend's own error beats a synthetic one); any
// other completed answer (a 4xx is the backend authoritatively rejecting
// the request) is a success.
func (p *Proxy) forward(ctx context.Context, g int, method, uri, contentType string, body []byte, idempotent bool) (*backendResponse, error) {
	attempts := 1
	if idempotent {
		attempts += p.opt.retries()
	}
	var resp *backendResponse
	err := p.failover(ctx, g, attempts, true, func(ri int) (err error) {
		resp, err = p.attempt(ctx, ri, method, uri, contentType, body)
		if err == nil && resp.code >= 500 {
			return errAnswered
		}
		return err
	})
	if err != nil && !errors.Is(err, errAnswered) {
		return nil, err
	}
	return resp, nil
}

// forwardWhole proxies any non-decide request to a rotating replica
// (meta, score, sweep, admin). Decide-independent state is assumed
// fleet-uniform — every backend serves the same database. Only
// read-only requests and the pure-compute score POST are retried;
// sweeps and admin mutations are not idempotent and get one attempt.
func (p *Proxy) forwardWhole(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, err)
		return
	}
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead ||
		(r.Method == http.MethodPost && (r.URL.Path == "/v1/decide" || r.URL.Path == "/v1/score"))
	resp, err := p.forward(r.Context(), anyGroup, r.Method, r.URL.RequestURI(),
		r.Header.Get("Content-Type"), body, idempotent)
	if err != nil {
		p.writeForwardError(w, err)
		return
	}
	writeBackendResponse(w, resp)
}

// serveHealthz answers the routing tier's own deep health: ok while
// every group has at least one available replica, degraded (503)
// otherwise — degraded traffic still flows via ring spill, but placement
// affinity is lost and operators should treat it as an incident.
func (p *Proxy) serveHealthz(w http.ResponseWriter) {
	type groupHealth struct {
		Name      string `json:"name"`
		Replicas  int    `json:"replicas"`
		Available int    `json:"available"`
	}
	out := struct {
		Status string        `json:"status"`
		Groups []groupHealth `json:"groups"`
	}{Status: "ok"}
	for g, b := range p.ring.Backends() {
		gh := groupHealth{Name: b.Name, Replicas: len(p.groups[g])}
		for _, ri := range p.groups[g] {
			if p.replicaAvailable(ri) {
				gh.Available++
			}
		}
		if gh.Available == 0 {
			out.Status = "degraded"
		}
		out.Groups = append(out.Groups, gh)
	}
	w.Header().Set("Content-Type", "application/json")
	if out.Status != "ok" {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	} else {
		w.WriteHeader(http.StatusOK)
	}
	json.NewEncoder(w).Encode(&out) //nolint:errcheck // client gone; nothing to report
}

// writeForwardError maps a forward failure onto the wire: exhausted
// availability is 503 + Retry-After (back off, the fleet is down),
// anything else is 502.
func (p *Proxy) writeForwardError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoReplica) {
		w.Header().Set("Retry-After", "1")
		writeProxyError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeProxyError(w, http.StatusBadGateway, err)
}

// writeBackendResponse relays a buffered backend answer.
func writeBackendResponse(w http.ResponseWriter, resp *backendResponse) {
	if resp.contentType != "" {
		w.Header().Set("Content-Type", resp.contentType)
	}
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	w.WriteHeader(resp.code)
	w.Write(resp.body) //nolint:errcheck // client gone; nothing to report
}

// writeProxyError mirrors the service's error body shape.
func writeProxyError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

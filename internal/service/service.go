// Package service implements qosrmad's long-running HTTP/JSON decision
// service over a compiled simulation database: per-machine RMA decisions
// for co-phase vectors (/v1/decide), collocation scoring and online
// placement (/v1/score), asynchronous scenario sweeps streaming CSV/JSON
// (/v1/sweep), liveness/metadata endpoints (/v1/healthz, /v1/meta), and a
// live-ops control plane — Prometheus-text metrics (/metrics), atomic
// database hot-swap (/admin/reload, Server.Swap), a periodic self-checker
// that spot-audits cached decisions against fresh library computations
// (/admin/check), and an operator status API (/admin/status).
//
// The decision path is sharded: queries hash to one of N shards by their
// manager configuration and co-phase vector, and each shard's mutex
// guards its decision LRU, its per-configuration managers (with their
// reusable curve buffers) and its statistics scratch. A request answers
// its batch on its own goroutine, one shard at a time, and allocates
// nothing beyond the response. Batching, sharding and caching are
// answer-invariant: the service is bit-identical to direct library calls,
// and the self-checker continuously re-verifies that invariant in
// production, degrading /v1/healthz to 503 when an audit fails.
//
// The serving state (database + scorer + version) lives behind one atomic
// snapshot pointer (see snapshot.go): reloads swap it without dropping
// in-flight requests, and Server.Shutdown drains in-flight decisions and
// running sweep jobs before stopping, so a rolling restart loses nothing.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/core"
	"qosrma/internal/ops"
	"qosrma/internal/resilience"
	"qosrma/internal/simdb"
	"qosrma/internal/sweep"
)

// maxBatch bounds the decide queries accepted in one request, on either
// codec.
const maxBatch = 1024

// errBatchTooLarge is the answer to a decide request of n > maxBatch
// queries. It stays out of line, so its formatting is not charged to the
// allocation-free resolvers that call it.
//
//go:noinline
func errBatchTooLarge(n int) error {
	return fmt.Errorf("batch of %d queries exceeds the limit of %d", n, maxBatch)
}

// Options configures a Server.
type Options struct {
	// Shards is the number of decision shards (default GOMAXPROCS, capped
	// at 16: each shard is one lock over its caches).
	Shards int
	// CacheSize is the per-shard decision LRU capacity in entries
	// (0 = default 4096, negative disables caching).
	CacheSize int
	// MaxJobs bounds the retained sweep jobs (default 64): at the cap the
	// oldest finished job is evicted, and submits are refused with 429
	// while every slot is running.
	MaxJobs int
	// MaxInflight bounds concurrently served decide/score requests: at
	// the limit the server answers 503 + Retry-After immediately instead
	// of queueing without bound (load shedding). Zero or negative selects
	// the default 1024.
	MaxInflight int

	// Source labels the initial database in /admin/status and /v1/meta
	// (default "built").
	Source string
	// Reloader produces a fresh database for SIGHUP and bodyless
	// POST /admin/reload requests, returning the database and a source
	// label. Nil disables source-less reloads (explicit {"path": ...}
	// reloads keep working).
	Reloader func() (*simdb.DB, string, error)
	// AuditInterval is the self-checker period; zero or negative disables
	// the periodic goroutine (POST /admin/check still audits on demand).
	AuditInterval time.Duration
	// AuditSamples bounds the cached decisions re-verified per audit
	// (default 16, spread across shards).
	AuditSamples int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 16 {
			o.Shards = 16
		}
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 1024
	}
	if o.Source == "" {
		o.Source = "built"
	}
	return o
}

// Server is the decision service: an http.Handler over a compiled
// database and a sweep engine. Construct with New; stop with Shutdown
// (graceful drain) or Close (immediate).
type Server struct {
	engine *sweep.Engine
	opt    Options

	// snap is the current serving state; gen feeds snapshot generations.
	snap atomic.Pointer[snapshot]
	gen  atomic.Uint64

	mux     *http.ServeMux
	routes  []string
	shards  []*shard
	started time.Time

	metrics serverMetrics
	checker *ops.Checker

	// stateMu orders decides against Close: decides hold the read side
	// while they run, Close takes the write side, so Close returns only
	// once every accepted decide has been answered.
	stateMu sync.RWMutex
	closed  bool

	// gate sheds decide/score load beyond Options.MaxInflight.
	gate *resilience.Gate

	// Binary serving path (wireserver.go): counters plus the listener and
	// connection sets Close tears down. wireDone refuses registration once
	// the server has closed; wireDraining makes connection loops answer
	// their in-flight frame, send a goaway Error frame and exit, with
	// wireWG counting the loops still running.
	wire         wireStats
	wireMu       sync.Mutex
	wireLns      map[net.Listener]struct{}
	wireConns    map[net.Conn]struct{}
	wireDone     bool
	wireDraining bool
	wireWG       sync.WaitGroup

	// draining refuses new decide/score/sweep work during Shutdown while
	// status endpoints keep answering; jobMu serializes the draining flag
	// against sweep-job registration so Shutdown's jobWG.Wait is sound.
	draining atomic.Bool
	jobMu    sync.Mutex
	jobWG    sync.WaitGroup

	jobs   *jobTable
	jobSem chan struct{} // serializes sweep-job execution
}

// errServerClosed is the fail-fast answer for requests after Close.
var errServerClosed = errors.New("service: server is closed")

// errDraining is the answer for new work during graceful shutdown.
var errDraining = errors.New("service: server is draining")

// errOverloaded is the load-shed answer once MaxInflight decide/score
// requests are already in flight.
var errOverloaded = errors.New("service: overloaded, request shed")

// New builds a server over the database. The sweep engine carries the
// single-flight result cache /v1/sweep jobs share; pass nil for a private
// engine.
func New(db *simdb.DB, engine *sweep.Engine, opt Options) *Server {
	if engine == nil {
		engine = sweep.NewEngine()
	}
	s := &Server{
		engine:  engine,
		opt:     opt.withDefaults(),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.snap.Store(s.newSnapshot(db, s.opt.Source))
	s.gate = resilience.NewGate(s.opt.MaxInflight)
	s.jobs = newJobTable(s.opt.MaxJobs)
	s.jobSem = make(chan struct{}, 1)
	s.shards = make([]*shard, s.opt.Shards)
	for i := range s.shards {
		sh := &shard{srv: s, idx: i}
		sh.adopt(s.snap.Load())
		s.shards[i] = sh
	}
	s.initMetrics()

	s.checker = ops.NewChecker(func(samples int) ops.AuditReport {
		rep := s.Audit(samples)
		if rep.Pass() {
			s.metrics.auditPass.Inc()
		} else {
			s.metrics.auditFail.Inc()
		}
		return rep
	}, s.opt.AuditInterval, s.opt.AuditSamples)
	s.checker.Start()

	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /v1/meta", s.handleMeta)
	s.handle("POST /v1/decide", s.handleDecide)
	s.handle("POST /v1/score", s.handleScore)
	s.handle("POST /v1/sweep", s.handleSweepSubmit)
	s.handle("GET /v1/sweep/{id}", s.handleSweepStatus)
	s.handle("GET /v1/sweep/{id}/result", s.handleSweepResult)
	s.handle("GET /metrics", s.metrics.reg.ServeHTTP)
	s.handle("GET /admin/status", s.handleAdminStatus)
	s.handle("POST /admin/reload", s.handleAdminReload)
	s.handle("POST /admin/check", s.handleAdminCheck)
	return s
}

// handle registers a route and records its pattern for Routes.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, h)
}

// Routes returns the registered route patterns ("METHOD /path"), in
// registration order — the contract tests and the docs-check script
// compare this surface against docs/api.md.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// ServeHTTP dispatches to the versioned API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the server immediately. It waits for in-flight decides to
// finish, and later requests answer 503. Close is idempotent. For a graceful stop that also waits for queued work and
// running sweep jobs, use Shutdown.
func (s *Server) Close() {
	s.stateMu.Lock()
	s.closed = true
	s.stateMu.Unlock()
	s.checker.Stop()
	s.closeWire()
}

// Shutdown gracefully drains the server: new decide/score/sweep requests
// are refused with 503 (Retry-After: 1) while status endpoints keep
// answering, running sweep jobs and in-flight decides complete, wire
// connections finish their in-flight frame and receive a goaway Error
// frame, and the server closes. It returns nil when the drain finished
// within ctx, or ctx.Err() after forcing an immediate close at the
// deadline (in-flight work still completes in the background — nothing is
// dropped, the caller just stops waiting). Callers typically pair it with
// http.Server.Shutdown, which stops accepting connections first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.jobMu.Lock()
	s.draining.Store(true)
	s.jobMu.Unlock()
	s.checker.Stop()

	// Phase 1: running sweep jobs. The draining flag (set under jobMu)
	// guarantees no new job registers after this Wait starts.
	jobsDone := make(chan struct{})
	go func() { s.jobWG.Wait(); close(jobsDone) }()
	select {
	case <-jobsDone:
	case <-ctx.Done():
		go s.Close()
		return ctx.Err()
	}

	// Phase 1b: wire connections. Listeners stop accepting, every
	// connection loop finishes the frame it is reading, answers it, sends
	// a goaway Error frame (Unavailable) and exits; clients treat the
	// goaway as a signal to fail over.
	s.drainWire()
	wireDone := make(chan struct{})
	go func() { s.wireWG.Wait(); close(wireDone) }()
	select {
	case <-wireDone:
	case <-ctx.Done():
		go s.Close()
		return ctx.Err()
	}

	// Phase 2: in-flight decides. The write lock is acquired only once
	// every decide has released the read side, i.e. once every accepted
	// request has been answered.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writeJSON renders a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report to
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeError renders a JSON error with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeUnavailable renders a 503 with a Retry-After hint — the shape
// drain-aware clients (cmd/loadgen) recognize as "back off or move on".
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

// HealthStats is the /v1/healthz payload. Status is "ok" (200),
// "degraded" (503: the self-checker's last audit found a mismatch or
// failed to run) or "draining" (503: graceful shutdown in progress).
type HealthStats struct {
	Status    string  `json:"status"`
	UptimeSec float64 `json:"uptime_sec"`
	DBHash    string  `json:"db_hash"`
	DBGen     uint64  `json:"db_generation"`

	Decide struct {
		Queries           uint64 `json:"queries"`
		CacheHits         uint64 `json:"cache_hits"`
		CacheMisses       uint64 `json:"cache_misses"`
		AdmissionRejected uint64 `json:"admission_rejected"`
		Batches           uint64 `json:"batches"`
		Shards            int    `json:"shards"`
		CacheBounds       int    `json:"cache_capacity_per_shard"`
	} `json:"decide"`
	Wire struct {
		Connections     uint64 `json:"connections"`
		OpenConnections int64  `json:"open_connections"`
		Frames          uint64 `json:"frames"`
		Queries         uint64 `json:"queries"`
		DecodeErrors    uint64 `json:"decode_errors"`
	} `json:"wire"`
	Score struct {
		Requests uint64 `json:"requests"`
	} `json:"score"`
	Sweep struct {
		Jobs        int   `json:"jobs"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	} `json:"sweep"`

	// Checker is the self-checker's latest audit (absent before the first
	// audit).
	Checker *ops.AuditReport `json:"checker,omitempty"`
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	var h HealthStats
	h.Status = "ok"
	code := http.StatusOK
	if rep, ok := s.checker.Last(); ok {
		h.Checker = &rep
		if !rep.Pass() {
			h.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	h.UptimeSec = time.Since(s.started).Seconds()
	h.DBHash = sn.hash
	h.DBGen = sn.gen
	for _, sh := range s.shards {
		h.Decide.Queries += sh.tasks.Load()
		h.Decide.CacheHits += sh.hits.Load()
		h.Decide.CacheMisses += sh.misses.Load()
		h.Decide.AdmissionRejected += sh.admRejects.Load()
		h.Decide.Batches += sh.batches.Load()
	}
	h.Decide.Shards = len(s.shards)
	h.Decide.CacheBounds = s.opt.CacheSize
	h.Wire.Connections = s.wire.conns.Load()
	h.Wire.OpenConnections = s.wire.open.Load()
	h.Wire.Frames = s.wire.frames.Load()
	h.Wire.Queries = s.wire.queries.Load()
	h.Wire.DecodeErrors = s.wire.decodeErrs.Load()
	h.Score.Requests = s.metrics.scoreRequests.Value()
	h.Sweep.Jobs = s.jobs.count()
	h.Sweep.CacheHits, h.Sweep.CacheMisses = s.engine.Cache().Stats()
	writeJSON(w, code, &h)
}

// MetaBench describes one servable benchmark.
type MetaBench struct {
	Name   string `json:"name"`
	Phases int    `json:"phases"`
}

// Meta is the /v1/meta payload: everything a client (the load generator,
// a dashboard) needs to construct valid queries, plus the serving
// database's content version so clients can detect hot-swaps.
type Meta struct {
	NumCores int         `json:"num_cores"`
	LLCAssoc int         `json:"llc_assoc"`
	DVFSGHz  []float64   `json:"dvfs_ghz"`
	Schemes  []string    `json:"schemes"`
	Benches  []MetaBench `json:"benches"`
	Shards   int         `json:"shards"`

	DBHash   string `json:"db_hash"`
	DBGen    uint64 `json:"db_generation"`
	DBSource string `json:"db_source"`
}

// handleMeta is GET /v1/meta.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	db := sn.db
	m := Meta{
		NumCores: db.Sys.NumCores,
		LLCAssoc: db.Sys.LLC.Assoc,
		Schemes:  core.SchemeShortNames(),
		Shards:   len(s.shards),
		DBHash:   sn.hash,
		DBGen:    sn.gen,
		DBSource: sn.source,
	}
	for _, op := range db.Sys.DVFS {
		m.DVFSGHz = append(m.DVFSGHz, op.FreqGHz)
	}
	for _, name := range db.BenchNames() {
		id, _ := db.BenchIDOf(name)
		m.Benches = append(m.Benches, MetaBench{Name: name, Phases: db.Benches[id].Analysis.NumPhases})
	}
	writeJSON(w, http.StatusOK, &m)
}

// Package qosrma is a reproduction of "QoS-Driven Coordinated Management of
// Resources to Save Energy in Multicore Systems" (Nejat, Pericàs, Stenström;
// IPDPS 2019) and its core-reconfiguration extension (Paper II of Nejat's
// licentiate thesis).
//
// The package is the public facade over the full stack:
//
//   - a synthetic SPEC-CPU2006-like benchmark substrate (internal/trace),
//   - SimPoint phase analysis (internal/simpoint),
//   - a way-partitioned LLC with auxiliary tag directories and the MLP-aware
//     ATD extension (internal/cache),
//   - an interval-analysis core timing model and a McPAT-style power model
//     (internal/timing, internal/power),
//   - the offline detailed-simulation database, compiled at build time into
//     dense per-phase performance tables over the (core size × DVFS level ×
//     ways) setting lattice (internal/simdb, internal/arch.Lattice),
//   - the QoS-driven coordinated resource managers (internal/core),
//   - the resumable co-phase RMA simulator (internal/rmasim), whose
//     stepper also powers dynamic, open-system scenarios,
//   - the scenario-sweep engine with its memoizing result cache
//     (internal/sweep), reachable through System.Sweep, and
//   - the open-system cluster engine (internal/cluster) — fleets of
//     machines fed by deterministic arrival traces with scored online
//     placement — reachable through System.Cluster, and
//   - the decision service (internal/service, cmd/qosrmad) — a sharded
//     HTTP/JSON server answering RMA decisions, collocation
//     scores and async sweeps bit-identically to the library calls, with a
//     live-ops control plane (Prometheus metrics, atomic database hot-swap,
//     graceful drain, a bit-identity self-checker; see docs/operations.md),
//     a zero-copy binary decide protocol (internal/wire) and a
//     consistent-hash routing tier for fleets (internal/route) —
//     reachable through System.Serve / System.NewServer.
//
// The compiled-lattice design follows the thesis methodology (Figure 2.1)
// to its conclusion: simulate in detail once, then answer every query by
// index arithmetic. Benchmark names are interned to dense identifiers, each
// phase's interval outcome is precomputed for every lattice point, and the
// RMA simulator's hot path is a bounds-checked array read (~1.1 ns, was
// ~82 ns of model re-evaluation), which in turn cuts a full co-phase
// workload simulation to roughly a third of its former runtime (~2.9×; the
// committed benchbase.txt tracks the micro-benchmarks) and the sweep-heavy
// paper experiments proportionally. docs/architecture.md maps the layers
// and the invariants that hold them together.
//
// Quick start:
//
//	sys, err := qosrma.NewSystem(4)
//	if err != nil { ... }
//	res, err := sys.Run([]string{"mcf", "soplex", "hmmer", "namd"},
//		qosrma.RM2, qosrma.WithModel(qosrma.Model2))
//	fmt.Printf("energy savings: %.1f%%\n", res.EnergySavings*100)
package qosrma

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/sched"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/sweep"
	"qosrma/internal/trace"
	"qosrma/internal/workload"
)

// Re-exported types: the facade exposes the domain vocabulary without
// requiring users to import internal packages.
type (
	// SystemConfig describes the modeled multi-core hardware.
	SystemConfig = arch.SystemConfig
	// Setting is one core's resource allocation (size, frequency, ways).
	Setting = arch.Setting
	// Scheme selects a resource-management algorithm.
	Scheme = core.Scheme
	// ModelKind selects the analytical performance model.
	ModelKind = core.ModelKind
	// Result is the outcome of simulating one workload.
	Result = rmasim.Result
	// AppResult is one application's scored outcome.
	AppResult = rmasim.AppResult
	// Mix is a named multi-programmed workload.
	Mix = workload.Mix
	// Profile is a benchmark's measured characterization.
	Profile = workload.Profile
)

// Scheme aliases matching the papers' naming.
const (
	// Static keeps the baseline allocation (the QoS reference point).
	Static = core.SchemeStatic
	// DVFSOnly controls only per-core frequency.
	DVFSOnly = core.SchemeDVFSOnly
	// RM1 repartitions the LLC only.
	RM1 = core.SchemePartitionOnly
	// RM2 coordinates per-core DVFS with LLC partitioning (IPDPS 2019).
	RM2 = core.SchemeCoordDVFSCache
	// RM3 additionally reconfigures the core micro-architecture (Paper II).
	RM3 = core.SchemeCoordCoreDVFSCache
)

// Analytical model aliases.
const (
	// Model1 charges every miss the full memory latency.
	Model1 = core.Model1
	// Model2 assumes constant memory-level parallelism (Paper I).
	Model2 = core.Model2
	// Model3 uses the MLP-aware ATD profiles (Paper II).
	Model3 = core.Model3
)

// System is a ready-to-simulate machine: a hardware configuration plus the
// offline detailed-simulation database for the benchmark suite (the thesis'
// Figure 2.1 methodology, performed once at construction) and a sweep
// engine whose result cache persists across Sweep calls.
type System struct {
	db     *simdb.DB
	engine *sweep.Engine
}

// NewSystem builds the default system for the given core count over the
// full 20-benchmark suite. Construction runs the SimPoint analysis and the
// parallel detailed simulation (well under a second for the default
// configurations; repeated constructions share phase profiles through a
// process-wide cache and are cheaper still).
func NewSystem(numCores int) (*System, error) {
	return NewSystemFromConfig(arch.DefaultSystemConfig(numCores))
}

// NewSystemFromConfig builds a system with a custom hardware description.
func NewSystemFromConfig(cfg SystemConfig) (*System, error) {
	db, err := simdb.Build(cfg, trace.Suite(), simdb.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	return newSystem(db), nil
}

// LoadSystem restores a system from a database file written by SaveDB.
func LoadSystem(path string) (*System, error) {
	db, err := simdb.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return newSystem(db), nil
}

func newSystem(db *simdb.DB) *System {
	return &System{db: db, engine: sweep.NewEngine()}
}

// SaveDB serializes the simulation database to a file.
func (s *System) SaveDB(path string) error { return s.db.SaveFile(path) }

// DB exposes the underlying simulation database for advanced use (the
// experiment runners in internal/experiments consume it directly).
func (s *System) DB() *simdb.DB { return s.db }

// Config returns the hardware configuration.
func (s *System) Config() SystemConfig { return s.db.Sys }

// benchmarkNames memoizes the suite's name list; the synthetic suite is
// built once per process (trace.Suite is itself memoized) and the facade
// never rebuilds it per call.
var benchmarkNames = sync.OnceValue(func() []string {
	suite := trace.Suite()
	names := make([]string, len(suite))
	for i, b := range suite {
		names[i] = b.Name
	}
	return names
})

// Benchmarks lists the names of the available benchmark applications.
func Benchmarks() []string {
	return append([]string(nil), benchmarkNames()...)
}

// runConfig collects the optional knobs of System.Run.
type runConfig struct {
	model        ModelKind
	slack        float64
	perCoreSlack []float64
	oracle       bool
	feedback     bool
	timeline     bool
}

// Option customizes a simulation run.
type Option func(*runConfig)

// WithModel selects the analytical model (default Model2 for RM2, matching
// Paper I; pass Model3 for the Paper II predictor).
func WithModel(k ModelKind) Option { return func(c *runConfig) { c.model = k } }

// WithSlack grants every application the same QoS relaxation (0.4 tolerates
// 40% longer execution time).
func WithSlack(slack float64) Option { return func(c *runConfig) { c.slack = slack } }

// WithPerCoreSlack grants per-application QoS relaxations.
func WithPerCoreSlack(slack []float64) Option {
	return func(c *runConfig) { c.perCoreSlack = slack }
}

// WithOracle feeds the resource manager perfect statistics for the upcoming
// interval (the paper's "perfect models" experiments).
func WithOracle() Option { return func(c *runConfig) { c.oracle = true } }

// WithFeedback enables the phase-history MLP table — the thesis' proposed
// software alternative to the Paper II MLP-ATD hardware. It reduces the
// QoS-violation risk of the Model 2 predictor at zero hardware cost.
func WithFeedback() Option { return func(c *runConfig) { c.feedback = true } }

// WithTimeline records every per-core setting change in Result.Timeline
// (the run-time allocation time-series shown in the papers' figures).
func WithTimeline() Option { return func(c *runConfig) { c.timeline = true } }

// Run simulates the workload (one benchmark name per core) under the given
// scheme and returns the scored result.
func (s *System) Run(apps []string, scheme Scheme, opts ...Option) (*Result, error) {
	rc := runConfig{model: scheme.DefaultModel()}
	for _, o := range opts {
		o(&rc)
	}
	n := s.db.Sys.NumCores
	if len(apps) != n {
		return nil, fmt.Errorf("qosrma: workload needs %d applications, got %d", n, len(apps))
	}
	slack := rc.perCoreSlack
	if slack == nil && rc.slack > 0 {
		slack = make([]float64, n)
		for i := range slack {
			slack[i] = rc.slack
		}
	}
	mgr := core.NewManager(core.Config{
		Sys:      s.db.Sys,
		Power:    power.DefaultParams(s.db.Sys),
		Scheme:   scheme,
		Model:    rc.model,
		Slack:    slack,
		Feedback: rc.feedback,
	})
	ro := rmasim.DefaultOptions()
	ro.Oracle = rc.oracle
	ro.Timeline = rc.timeline
	return rmasim.Run(s.db, apps, mgr, ro)
}

// Characterize measures every benchmark against this system and returns the
// paper-style categorization (memory intensity, cache sensitivity,
// parallelism sensitivity).
func (s *System) Characterize() ([]*Profile, error) {
	return workload.CharacterizeAll(s.db)
}

// PaperIMixes generates Paper I style category workloads for this system.
func (s *System) PaperIMixes(numMixes int) ([]Mix, error) {
	profiles, err := s.Characterize()
	if err != nil {
		return nil, err
	}
	return workload.PaperIMixes(profiles, s.db.Sys.NumCores, numMixes), nil
}

// PaperIIMixes generates the Paper II category-pair workloads (pairs of
// Paper I classes filling the machine half-and-half).
func (s *System) PaperIIMixes() ([]Mix, error) {
	profiles, err := s.Characterize()
	if err != nil {
		return nil, err
	}
	return workload.PaperIIMixes(profiles), nil
}

// BaselineRound returns the time and energy of one full execution round of
// the benchmark at the static baseline allocation.
func (s *System) BaselineRound(bench string) (seconds, joules float64, err error) {
	return rmasim.BaselineRound(s.db, bench)
}

// Server is the long-running decision service over this system: an
// http.Handler answering the /v1/* API (decide, score, sweep, meta,
// healthz) plus the live-ops control plane — GET /metrics in Prometheus
// text format, POST /admin/reload for atomic database hot-swap,
// /admin/status and /admin/check for the self-checker (see docs/api.md
// and internal/service for the wire formats). Decisions are sharded,
// with a per-shard LRU in front, answered on the request's goroutine,
// and bit-identical to the corresponding direct library calls. Stop with Server.Shutdown
// (graceful drain) or Server.Close (immediate).
type Server = service.Server

// ServeSpec configures the decision service.
type ServeSpec struct {
	// Addr is the listen address for Serve (e.g. ":8080").
	Addr string
	// WireAddr, when set, makes Serve also listen on this raw-TCP
	// address with the compact binary decide protocol (internal/wire;
	// spec in docs/api.md) — the same shards as the HTTP path,
	// bit-identical answers, several times the JSON throughput.
	WireAddr string
	// Shards is the number of decision shards, each one lock over its
	// curve buffers, managers and LRU (default GOMAXPROCS, capped at 16).
	Shards int
	// CacheSize is the per-shard decision-LRU capacity (default 4096
	// entries; negative disables caching).
	CacheSize int

	// ReloadPath, when set, is where SIGHUP and bodyless POST /admin/reload
	// re-read the database from. Unset, reloads rebuild the database from
	// the system's configuration over the full suite (a deterministic
	// rebuild keeps the same content hash).
	ReloadPath string
	// AuditInterval is the self-checker period (0 disables periodic
	// audits; POST /admin/check still audits on demand).
	AuditInterval time.Duration
	// AuditSamples bounds cached decisions re-verified per audit
	// (default 16).
	AuditSamples int
	// MaxInflight bounds concurrently served decide/score requests; at
	// the limit the server sheds load with 503 + Retry-After (default
	// 1024 when zero or negative).
	MaxInflight int
}

// NewServer builds the decision service handler over this system's
// database and sweep engine (sweep jobs share the engine's single-flight
// result cache with Sweep calls). Release with Server.Close or drain with
// Server.Shutdown.
func (s *System) NewServer(spec ServeSpec) *Server {
	source := "built"
	reloader := func() (*simdb.DB, string, error) {
		db, err := simdb.Build(s.db.Sys, trace.Suite(), simdb.DefaultBuildOptions())
		return db, "rebuilt", err
	}
	if spec.ReloadPath != "" {
		source = spec.ReloadPath
		reloader = func() (*simdb.DB, string, error) {
			db, err := simdb.LoadFile(spec.ReloadPath)
			return db, spec.ReloadPath, err
		}
	}
	return service.New(s.db, s.engine, service.Options{
		Shards:        spec.Shards,
		CacheSize:     spec.CacheSize,
		Source:        source,
		Reloader:      reloader,
		AuditInterval: spec.AuditInterval,
		AuditSamples:  spec.AuditSamples,
		MaxInflight:   spec.MaxInflight,
	})
}

// Serve runs the decision service on spec.Addr until the listener fails,
// adding a binary decide listener on spec.WireAddr when set. This is the
// simple blocking entry point; cmd/qosrmad wraps NewServer in its own
// http.Server for signal-driven reload and graceful drain.
func (s *System) Serve(spec ServeSpec) error {
	srv := s.NewServer(spec)
	defer srv.Close()
	if spec.WireAddr != "" {
		ln, err := net.Listen("tcp", spec.WireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		go srv.ServeWire(ln) //nolint:errcheck // returns nil on Close; Close tears it down
	}
	return http.ListenAndServe(spec.Addr, srv)
}

// Collocate partitions the applications onto the given number of machines
// (each with this system's core count) so that the coordinated resource
// manager is predicted to save the most energy — the thesis' scheduler-
// guidance proposal. It returns the machine assignments and the predicted
// mean savings.
func (s *System) Collocate(apps []string, machines int) (assignment [][]string, predicted float64, err error) {
	a, err := sched.Collocate(s.db, apps, machines)
	if err != nil {
		return nil, 0, err
	}
	return a.Machines, a.Predicted, nil
}

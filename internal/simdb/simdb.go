// Package simdb implements the simulation-results database of the thesis
// methodology (Figure 2.1): detailed simulation is performed once, offline
// and in parallel, for every (benchmark, phase) pair, and the results are
// collected in a database that the co-phase RMA simulator queries for every
// resource setting.
//
// The database is *compiled*: at Build time the interval timing model and
// the power model are evaluated over the entire (core size × DVFS level ×
// ways) setting lattice for every phase, so that the query hot path —
// db.PerfAt(bench, phase, latticeIndex) — is a bounds-checked array read
// (index arithmetic, no model re-evaluation, no map lookups, no error
// plumbing). A compiled point keeps 32 bytes (cycles, seconds, total and
// stall energy); the rates and miss counts its readers need are derived
// on read with the model's own float expressions, bit-identically.
// Benchmarks are interned: callers resolve a name to a BenchID
// once and use dense indices thereafter. The string-keyed API (Perf,
// Record, Analysis) remains as a thin compatibility wrapper, and
// ReferencePerf retains the on-the-fly model evaluation the tables are
// compiled from.
//
// The build side is fused and cached. Profiling one phase used to walk the
// ~48k-access sample stream once per (core size, way allocation) point —
// ~51 passes for a 16-way LLC, ~99 for 32 ways — plus a second warmed ATD
// pass for the set-sampled profile. It now runs cache.ProfileStream: one
// exact-ATD pass for stack distances and one fused epoch-structured pass
// that yields the full leading-miss surface Leading[c][w] and both miss
// histograms at once, bit-identical to the naive loops (property-tested).
// Because a phase profile depends only on profile-relevant configuration
// (LLC sets + sampling, per-size ROB/MSHR, the behaviour and stream seed)
// — not on DVFS, memory or power parameters — profiles live in a
// process-wide single-flight cache (profilecache.go) and are shared across
// databases: BuildAll profiles each phase once for the 4- and 8-core
// systems together, and repeated builds in tests, sweeps and benchmarks
// hit the cache. SimPoint analyses, equally system-independent, are
// memoized the same way.
package simdb

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/flight"
	"qosrma/internal/power"
	"qosrma/internal/simpoint"
	"qosrma/internal/timing"
	"qosrma/internal/trace"
)

// BenchID is a dense interned benchmark identifier: the index of the
// benchmark in DB.Benches.
type BenchID int

// PhaseRecord holds the detailed-simulation results for one phase's
// representative slice, scaled to one 100M-instruction interval. These are
// the *model inputs*; the compiled per-setting outcomes live in the
// benchmark's PerfTables.
type PhaseRecord struct {
	// Program characteristics exposed through performance counters.
	IlpIPC     float64
	BranchMPKI float64
	APKI       float64 // LLC accesses per kilo-instruction

	// Misses[w]: LLC misses per interval with w ways (exact ATD profile).
	Misses []float64
	// SampledMisses[w]: the same profile measured by the set-sampled ATD —
	// what the resource manager actually observes.
	SampledMisses []float64
	// Leading[c][w]: leading (non-overlapped) misses per interval for core
	// size c and w ways (exact MLP-ATD profile).
	Leading [][]float64
	// SampledLeading[c][w]: the noisy observable counterpart.
	SampledLeading [][]float64

	Weight   float64 // phase weight from SimPoint
	RepSlice int     // representative slice index
}

// BenchData is one interned benchmark: its SimPoint analysis, the per-phase
// detailed-simulation records, and the compiled per-phase performance
// tables over the setting lattice.
type BenchData struct {
	Name     string
	Analysis *simpoint.Analysis
	// Phases[p] is the detailed-simulation record of phase p.
	Phases []*PhaseRecord
	// PerfTables[p][i] is the precomputed outcome of one interval of phase
	// p at the setting with lattice index i.
	PerfTables [][]PerfPoint
}

// DB is the simulation-results database for one system configuration.
type DB struct {
	Sys     arch.SystemConfig
	Power   power.Params
	Lattice arch.Lattice
	Benches []*BenchData

	byName map[string]BenchID // rebuilt on load; not serialized
	memo   *recompileMemo     // shared by shallow copies; not serialized

	// baseIdx1 caches the lattice index of the baseline setting, stored +1
	// so zero means "not computed" (hand-constructed test databases never
	// go through reindex). Refreshed by WithSys when the baseline moves.
	baseIdx1 int
}

// recompileMemo memoizes bandwidth-override recompilations. It hangs off
// the source database (shared by every shallow copy of it), so the cached
// tables live exactly as long as the database they derive from.
type recompileMemo struct {
	mu     sync.Mutex
	byGBps map[float64]*DB
}

// PerfPoint is the compiled outcome of one interval at one setting — the
// quantity the RMA simulator schedules and accounts with. It keeps only
// the four values that cannot be recomputed bit-exactly from the others
// or from the phase record: 32 bytes per lattice point. The rates (TPI,
// EPI, IPS, StallWatts) are methods, and the interval's misses, leading
// misses and LLC accesses are read from the PhaseRecord at the point's
// setting (MissesAt, LeadingAt, LLCAccesses); each repeats the exact float
// expression the model evaluation used, so every derived value is
// bit-identical to the full evaluation.
type PerfPoint struct {
	Cycles  float64
	Seconds float64
	Energy  PointEnergy
}

// PointEnergy is an interval's energy in joules: the total of the
// power.Breakdown, and the share drawn at a constant rate whatever the
// core executes (leakage plus uncore), which a reconfiguration stall pays.
type PointEnergy struct {
	J      float64 // Breakdown.Total()
	StallJ float64 // Breakdown.CoreStat + Breakdown.Uncore
}

// Total returns the interval's total energy in joules.
//
//qosrma:allow(testonly) perfbench calls it
func (e PointEnergy) Total() float64 { return e.J }

// sliceInstr is the instruction count of one interval.
const sliceInstr = float64(trace.SliceInstructions)

// TPI returns seconds per instruction.
func (pt PerfPoint) TPI() float64 { return pt.Seconds / sliceInstr }

// EPI returns joules per instruction.
func (pt PerfPoint) EPI() float64 { return pt.Energy.J / sliceInstr }

// StallWatts returns the power drawn while the core stalls on a
// reconfiguration: leakage plus uncore. A degenerate zero-duration point
// sustains no power draw.
func (pt PerfPoint) StallWatts() float64 {
	if pt.Seconds > 0 {
		return pt.Energy.StallJ / pt.Seconds
	}
	return 0
}

// clampWays maps a way count onto the record's profile range.
func (rec *PhaseRecord) clampWays(w int) int {
	if w < 0 {
		w = 0
	}
	if w >= len(rec.Misses) {
		w = len(rec.Misses) - 1
	}
	return w
}

// MissesAt returns the LLC misses of one interval at setting s (exact
// profile, ways clamped onto the profile).
func (rec *PhaseRecord) MissesAt(s arch.Setting) float64 {
	return rec.Misses[rec.clampWays(s.Ways)]
}

// LeadingAt returns the leading misses of one interval at setting s
// (exact profile, ways clamped onto the profile).
func (rec *PhaseRecord) LeadingAt(s arch.Setting) float64 {
	return rec.Leading[s.Size][rec.clampWays(s.Ways)]
}

// LLCAccesses returns the LLC accesses of one interval.
func (rec *PhaseRecord) LLCAccesses() float64 {
	return rec.APKI * sliceInstr / 1000
}

// BuildOptions controls database construction.
type BuildOptions struct {
	Sample   trace.SampleParams
	SimPoint simpoint.Options
	Workers  int
}

// DefaultBuildOptions returns the standard build configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Sample:   trace.DefaultSampleParams(),
		SimPoint: simpoint.DefaultOptions(),
		Workers:  runtime.GOMAXPROCS(0),
	}
}

// Build runs SimPoint analysis on every benchmark, detailed simulation of
// every (benchmark, phase) pair across the configuration space, and table
// compilation over the setting lattice, using a parallel worker pool. The
// result is deterministic and independent of the worker count.
func Build(sys arch.SystemConfig, benches []*trace.Benchmark, opt BuildOptions) (*DB, error) {
	dbs, err := BuildAll([]arch.SystemConfig{sys}, benches, opt)
	if err != nil {
		return nil, err
	}
	return dbs[0], nil
}

// BuildAll builds one database per system configuration on a single shared
// worker pool, interleaving the per-phase jobs of all systems. SimPoint
// analyses run first on the same pool, once per benchmark (they are
// system-independent), and phases are profiled once at the deepest LLC
// associativity among the systems, so configurations that share
// profile-relevant parameters — such as the default 4- and 8-core
// machines — share one detailed-simulation pass per phase through the
// process-wide profile cache. The result is deterministic and independent
// of the worker count and of cache state.
func BuildAll(systems []arch.SystemConfig, benches []*trace.Benchmark, opt BuildOptions) ([]*DB, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("simdb: no system configurations")
	}
	profileAssoc := 0
	for _, sys := range systems {
		if err := sys.Validate(); err != nil {
			return nil, err
		}
		if sys.LLC.Assoc > profileAssoc {
			profileAssoc = sys.LLC.Assoc
		}
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}

	// One pool of opt.Workers goroutines runs both stages. Every task
	// writes a distinct slot, so the pool needs no locking; the semaphore
	// only bounds parallelism.
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, opt.Workers)
	)
	run := func(task func()) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			task()
		}()
	}

	// SimPoint analysis is independent of the system configuration:
	// analyze each benchmark once, shared by every database built here
	// (and by later builds, through the memo). The phase jobs need every
	// benchmark's phase count, so the stage ends at a barrier.
	analyses := make([]*simpoint.Analysis, len(benches))
	for i, b := range benches {
		run(func() { analyses[i] = analyzeCached(b, opt.SimPoint) })
	}
	wg.Wait()

	type job struct {
		db    *DB
		bench *trace.Benchmark
		data  *BenchData
		phase int
	}
	dbs := make([]*DB, len(systems))
	var jobs []job
	for si := range systems {
		db := &DB{
			Sys:     systems[si],
			Power:   power.DefaultParams(systems[si]),
			Lattice: systems[si].Lattice(),
			memo:    newRecompileMemo(),
		}
		for bi, b := range benches {
			an := analyses[bi]
			bd := &BenchData{
				Name:       b.Name,
				Analysis:   an,
				Phases:     make([]*PhaseRecord, an.NumPhases),
				PerfTables: make([][]PerfPoint, an.NumPhases),
			}
			db.Benches = append(db.Benches, bd)
			for p := 0; p < an.NumPhases; p++ {
				jobs = append(jobs, job{db: db, bench: b, data: bd, phase: p})
			}
		}
		db.reindex()
		dbs[si] = db
	}

	// Every job writes a distinct (system, bench, phase) slot. Jobs from
	// different systems that share a phase profile rendezvous in the
	// profile cache's single-flight entries.
	for _, j := range jobs {
		run(func() {
			rec := simulatePhase(j.db.Sys, j.bench, j.data.Analysis, j.phase, opt.Sample, profileAssoc)
			j.data.Phases[j.phase] = rec
			j.data.PerfTables[j.phase] = compileTable(&j.db.Sys, j.db.Power, j.db.Lattice, rec)
		})
	}
	wg.Wait()
	return dbs, nil
}

// analysisKey memoizes SimPoint analyses by benchmark identity. Suite
// benchmarks are process-wide immutable singletons, so pointer identity is
// the right notion.
type analysisKey struct {
	bench *trace.Benchmark
	opt   simpoint.Options
}

var analysisCache flight.Group[analysisKey, *simpoint.Analysis]

// analyzeCached returns the (deterministic) SimPoint analysis of b,
// computing it at most once per process for each (benchmark, options).
// Only the interned suite singletons are memoized: their pointer keys are
// a fixed, bounded population, whereas hand-constructed benchmarks would
// add one permanently retained entry per construction (a leak in
// long-lived processes), so those are analyzed directly.
func analyzeCached(b *trace.Benchmark, opt simpoint.Options) *simpoint.Analysis {
	if trace.ByName(b.Name) != b {
		return simpoint.Analyze(b, opt)
	}
	an, _, _ := analysisCache.Do(analysisKey{bench: b, opt: opt}, nil, func() (*simpoint.Analysis, error) {
		return simpoint.Analyze(b, opt), nil
	})
	return an
}

// reindex rebuilds the name → BenchID intern table and the in-memory-only
// state gob does not carry.
func (db *DB) reindex() {
	db.byName = make(map[string]BenchID, len(db.Benches))
	for i, bd := range db.Benches {
		db.byName[bd.Name] = BenchID(i)
	}
	if db.memo == nil {
		db.memo = newRecompileMemo()
	}
	db.baseIdx1 = db.Lattice.Index(db.Sys.BaselineSetting()) + 1
}

// BaselineIdx returns the lattice index of the system's baseline setting.
// It is cached at build/load time so the RMA simulator's scoring loops
// never re-derive it; a database constructed by hand (tests) computes it
// on the fly without mutating shared state.
func (db *DB) BaselineIdx() int {
	if db.baseIdx1 != 0 {
		return db.baseIdx1 - 1
	}
	return db.Lattice.Index(db.Sys.BaselineSetting())
}

// WithSys returns a shallow copy of the database bound to sys, refreshing
// the derived cached state (the baseline lattice index). The copy shares
// every compiled table, so sys must differ only in parameters that do not
// change them — baseline setting, switch costs; overrides that change the
// ground-truth model go through Recompiled/RecompiledCached instead.
func (db *DB) WithSys(sys arch.SystemConfig) *DB {
	out := *db
	out.Sys = sys
	out.baseIdx1 = out.Lattice.Index(sys.BaselineSetting()) + 1
	return &out
}

func newRecompileMemo() *recompileMemo {
	return &recompileMemo{byGBps: make(map[float64]*DB)}
}

// compileTable evaluates the detailed model at every lattice point.
func compileTable(sys *arch.SystemConfig, pw power.Params, lat arch.Lattice, rec *PhaseRecord) []PerfPoint {
	tab := make([]PerfPoint, lat.Len())
	for i := range tab {
		tab[i] = evalPerf(sys, pw, rec, lat.Setting(i))
	}
	return tab
}

// Recompiled returns a database that shares this one's detailed-simulation
// records but evaluates them under a different system configuration: the
// per-phase performance tables are recompiled against sys. Used by the
// sweep engine for overrides (e.g. the per-core memory-bandwidth ablation)
// that change the derived model but not the underlying profiles. The
// technology power parameters are carried over unchanged, matching the
// historical shallow-clone semantics.
func (db *DB) Recompiled(sys arch.SystemConfig) *DB {
	out := &DB{
		Sys:     sys,
		Power:   db.Power,
		Lattice: sys.Lattice(),
		Benches: make([]*BenchData, len(db.Benches)),
		memo:    newRecompileMemo(),
	}
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for i, bd := range db.Benches {
		nbd := &BenchData{
			Name:       bd.Name,
			Analysis:   bd.Analysis,
			Phases:     bd.Phases,
			PerfTables: make([][]PerfPoint, len(bd.Phases)),
		}
		out.Benches[i] = nbd
		for p, rec := range bd.Phases {
			wg.Add(1)
			sem <- struct{}{}
			go func(p int, rec *PhaseRecord) {
				defer wg.Done()
				defer func() { <-sem }()
				nbd.PerfTables[p] = compileTable(&out.Sys, out.Power, out.Lattice, rec)
			}(p, rec)
		}
	}
	wg.Wait()
	out.reindex()
	return out
}

// RecompiledCached is Recompiled memoized on the per-core bandwidth cap —
// the only system override in this codebase that changes the compiled
// tables. Repeated calls with the same cap (e.g. a sweep grid running many
// mixes against a few bandwidth variants) compile once; perf-neutral
// differences in sys (baseline frequency, switch costs) are applied to the
// returned copy without recompiling. The memo lives and dies with the
// receiver's source database.
func (db *DB) RecompiledCached(sys arch.SystemConfig) *DB {
	m := db.memo
	if m == nil {
		// Hand-constructed database (tests): no memo, compile directly.
		return db.Recompiled(sys)
	}
	key := sys.Mem.PerCoreGBps
	m.mu.Lock()
	cached := m.byGBps[key]
	m.mu.Unlock()
	if cached == nil {
		cached = db.Recompiled(sys)
		m.mu.Lock()
		if prior, ok := m.byGBps[key]; ok {
			cached = prior // lost a race; keep the first compilation
		} else {
			m.byGBps[key] = cached
		}
		m.mu.Unlock()
	}
	return cached.WithSys(sys)
}

// simulatePhase returns the detailed-simulation record of one phase,
// serving the underlying profile from the process-wide single-flight cache
// (profiling it at profileAssoc on a miss). The record is bit-identical to
// SimulatePhase's uncached computation.
func simulatePhase(sys arch.SystemConfig, b *trace.Benchmark, an *simpoint.Analysis, phase int, sp trace.SampleParams, profileAssoc int) *PhaseRecord {
	if profileAssoc < sys.LLC.Assoc {
		profileAssoc = sys.LLC.Assoc
	}
	key := profileKeyFor(sys, b, an, phase, sp)
	return profCache.get(key, profileAssoc).record(sys.LLC.Assoc, an, phase)
}

// SimulatePhase performs the detailed simulation of one phase, bypassing
// the profile cache: it generates the representative slice's sample stream
// and runs the fused one-pass profiler (cache.ProfileStream) over it,
// producing the miss and leading-miss profiles for the full configuration
// space. Exported for benchmarks and tools that measure or inspect the
// build-side kernel directly; Build itself goes through the cache.
//
//qosrma:allow(testonly) perfbench calls it
func SimulatePhase(sys arch.SystemConfig, b *trace.Benchmark, an *simpoint.Analysis, phase int, sp trace.SampleParams) *PhaseRecord {
	key := profileKeyFor(sys, b, an, phase, sp)
	return computePhaseProfile(key, sys.LLC.Assoc).record(sys.LLC.Assoc, an, phase)
}

// profileKeyFor assembles the profile-relevant configuration of one phase:
// the jittered behaviour spec and stream seed of the representative slice,
// the LLC geometry the ATD mirrors, the sample sizes, and each core
// size's MLP parameters.
func profileKeyFor(sys arch.SystemConfig, b *trace.Benchmark, an *simpoint.Analysis, phase int, sp trace.SampleParams) profileKey {
	rep := an.Representative[phase]
	behaviorIdx := b.SliceBehavior[rep]
	var cores [arch.NumCoreSizes]cache.CoreMLPParams
	for c := 0; c < arch.NumCoreSizes; c++ {
		cores[c] = cache.CoreMLPParams{ROB: sys.Cores[c].ROB, MSHRs: sys.Cores[c].MSHRs}
	}
	return profileKey{
		behavior:   b.SliceBehaviorSpec(rep),
		streamSeed: b.StreamSeed(behaviorIdx),
		sets:       sys.LLC.Sets,
		sampleIn:   sys.LLC.SampleIn,
		sample:     sp,
		cores:      cores,
	}
}

// ---- interned fast path ----

// BenchIDOf resolves a benchmark name to its dense identifier.
func (db *DB) BenchIDOf(name string) (BenchID, bool) {
	id, ok := db.byName[name]
	return id, ok
}

// BenchIDOfBytes is BenchIDOf for a name held in a byte slice, such as a
// request buffer; the lookup does not allocate, whatever the name's length.
func (db *DB) BenchIDOfBytes(name []byte) (BenchID, bool) {
	id, ok := db.byName[string(name)]
	return id, ok
}

// NumBenches returns the number of interned benchmarks.
func (db *DB) NumBenches() int { return len(db.Benches) }

// BenchName returns the name of an interned benchmark.
func (db *DB) BenchName(id BenchID) string { return db.Benches[id].Name }

// PerfAt returns the precomputed outcome of one interval of the phase at
// the setting with the given lattice index. This is the RMA-simulator hot
// path: a bounds-checked array read.
func (db *DB) PerfAt(id BenchID, phase, latticeIdx int) *PerfPoint {
	return &db.Benches[id].PerfTables[phase][latticeIdx]
}

// RecordAt returns the phase record by dense indices.
func (db *DB) RecordAt(id BenchID, phase int) *PhaseRecord {
	return db.Benches[id].Phases[phase]
}

// PhaseTraceAt returns the phase sequence of the benchmark's full execution
// by dense identifier.
func (db *DB) PhaseTraceAt(id BenchID) []int {
	return db.Benches[id].Analysis.PhaseTrace
}

// ---- string-keyed compatibility API ----

// Record returns the phase record, or an error naming the missing key.
func (db *DB) Record(bench string, phase int) (*PhaseRecord, error) {
	bd, ok := db.byName[bench]
	if !ok {
		return nil, fmt.Errorf("simdb: no record for %s phase %d", bench, phase)
	}
	ps := db.Benches[bd].Phases
	if phase < 0 || phase >= len(ps) {
		return nil, fmt.Errorf("simdb: no record for %s phase %d", bench, phase)
	}
	return ps[phase], nil
}

// Perf evaluates one interval of the given phase at the given setting.
// This is the ground truth the RMA simulator uses, served from the
// compiled lattice table.
func (db *DB) Perf(bench string, phase int, s arch.Setting) (PerfPoint, error) {
	id, ok := db.byName[bench]
	if !ok {
		return PerfPoint{}, fmt.Errorf("simdb: no record for %s phase %d", bench, phase)
	}
	tabs := db.Benches[id].PerfTables
	if phase < 0 || phase >= len(tabs) {
		return PerfPoint{}, fmt.Errorf("simdb: no record for %s phase %d", bench, phase)
	}
	return tabs[phase][db.Lattice.Index(s)], nil
}

// ReferencePerf evaluates the detailed model on the fly — the retained
// reference implementation the lattice tables are compiled from. The
// compiled Perf/PerfAt results are bit-identical to it by construction
// (asserted by TestCompiledPerfMatchesReference).
//
//qosrma:allow(testonly) the bit-identity oracle of the compiled tables' tests and BenchmarkSimDBReferenceEval
func (db *DB) ReferencePerf(bench string, phase int, s arch.Setting) (PerfPoint, error) {
	rec, err := db.Record(bench, phase)
	if err != nil {
		return PerfPoint{}, err
	}
	return evalPerf(&db.Sys, db.Power, rec, s), nil
}

// evalPerf computes performance and energy from a phase record by direct
// model evaluation.
func evalPerf(sys *arch.SystemConfig, pw power.Params, rec *PhaseRecord, s arch.Setting) PerfPoint {
	misses := rec.MissesAt(s)
	op := sys.DVFS[s.FreqIdx]
	cp := sys.Cores[s.Size]

	in := timing.Inputs{
		Instr:         sliceInstr,
		IlpIPC:        rec.IlpIPC,
		BranchMPKI:    rec.BranchMPKI,
		LeadingMisses: rec.LeadingAt(s),
		FreqGHz:       op.FreqGHz,
		MemLatNs:      sys.Mem.LatencyNs,
		Core:          cp,
	}
	cycles := timing.Cycles(in).Total()
	secs := timing.Seconds(cycles, op.FreqGHz)
	if cap := sys.Mem.PerCoreGBps; cap > 0 {
		// Bandwidth-partitioned memory controller: one refinement step of
		// the demand/latency fixed point is ample at interval granularity.
		demand := misses * float64(sys.LLC.LineB) / secs
		in.MemLatNs = timing.BandwidthLatency(sys.Mem.LatencyNs, demand, cap*1e9)
		cycles = timing.Cycles(in).Total()
		secs = timing.Seconds(cycles, op.FreqGHz)
	}
	eb := power.Energy(pw, power.Activity{
		Instr:       sliceInstr,
		Seconds:     secs,
		LLCAccesses: rec.LLCAccesses(),
		DRAMAcc:     misses,
		Core:        cp,
		Op:          op,
	})
	return PerfPoint{
		Cycles:  cycles,
		Seconds: secs,
		Energy:  PointEnergy{J: eb.Total(), StallJ: eb.CoreStat + eb.Uncore},
	}
}

// Analysis returns the benchmark's SimPoint analysis, or nil when unknown.
func (db *DB) Analysis(bench string) *simpoint.Analysis {
	bd, ok := db.byName[bench]
	if !ok {
		return nil
	}
	return db.Benches[bd].Analysis
}

// NumRecords returns the total number of (benchmark, phase) records.
func (db *DB) NumRecords() int {
	n := 0
	for _, bd := range db.Benches {
		n += len(bd.Phases)
	}
	return n
}

// BenchNames returns the benchmark names, sorted.
func (db *DB) BenchNames() []string {
	names := make([]string, len(db.Benches))
	for i, bd := range db.Benches {
		names[i] = bd.Name
	}
	sort.Strings(names)
	return names
}

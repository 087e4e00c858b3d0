// Package rmasim implements the co-phase RMA simulator of the thesis
// (Chapter 2, Figure 2.2): a global-event-driven proxy simulation of a full
// multi-programmed execution under the control of a resource-management
// algorithm. Each application advances through its SimPoint phase trace;
// the time and energy of every interval at the current resource setting
// come from the simulation-results database; the RMA is invoked each time a
// core retires a 100M-instruction interval; reconfiguration overheads are
// charged when settings change; and applications that finish restart
// (co-phase methodology) so that contention stays realistic until every
// application has completed at least one full round, which is the scored
// portion.
//
// The simulator is a resumable stepper: Sim carries the full machine state
// between events, so callers can interleave Step with Arrive and Depart to
// express open-system scenarios — applications entering and leaving a
// machine at arbitrary times — on the same event loop and accounting the
// closed-world Run wrapper uses (internal/cluster drives whole fleets of
// Sims this way). Run itself remains the one-shot paper entry point: one
// application per core, simulated until every first round completes.
//
// The interval loop is allocation-free and map-free: benchmark names are
// interned to dense simdb.BenchIDs up front, the current setting is carried
// as a lattice index, and every database query is a precompiled-table read.
// Interval completions are exact — the core whose completion defines an
// event horizon retires precisely its remaining instructions, so rem and
// stall reach exactly zero and no epsilon of work is ever dropped.
package rmasim

import (
	"fmt"
	"math"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

// Options controls one simulation run.
type Options struct {
	// Oracle: when true the RMA receives perfect statistics — the exact
	// profiles and true ILP of the *upcoming* interval (the paper's
	// "perfect models with no prediction error" experiment). When false it
	// receives the set-sampled profiles of the interval that just ended.
	Oracle bool
	// MaxEvents bounds the event loop as a safety net.
	MaxEvents int
	// Timeline records every setting change (time-series of allocations,
	// as in the papers' run-time behaviour figures).
	Timeline bool
}

// DefaultOptions returns the standard run configuration.
func DefaultOptions() Options { return Options{MaxEvents: 2_000_000} }

// AppResult is the scored outcome of one application's first round.
type AppResult struct {
	Core  int
	Bench string

	Time   float64 // seconds to complete the first full round
	Energy float64 // joules consumed by the core during its first round

	BaselineTime   float64 // same round under the static baseline
	BaselineEnergy float64

	// ExcessTime is (Time - BaselineTime) / BaselineTime; positive values
	// mean the application ran slower than the baseline.
	ExcessTime float64
	// MeanFreqGHz and MeanWays are the instruction-weighted averages of the
	// resource allocation the application actually ran with.
	MeanFreqGHz float64
	MeanWays    float64
	// AllowedSlack is the QoS relaxation the RMA was granted for this core.
	AllowedSlack float64
}

// Violated reports whether the application's QoS was violated: execution
// more than 1% slower than the (slack-adjusted) baseline — the thesis
// counts values below 1% as negligible.
func (a AppResult) Violated() bool {
	return a.ExcessTime > a.AllowedSlack+0.01
}

// Result is the outcome of one workload simulation.
type Result struct {
	Scheme string
	Apps   []AppResult

	// EnergySavings is 1 - sum(app energy) / sum(baseline app energy).
	EnergySavings float64
	// Violations is the number of applications with a QoS violation.
	Violations int
	// Invocations counts RMA invocations during the run.
	Invocations int

	// Interval-level QoS audit (Paper II §V): for every completed interval,
	// the achieved interval time is compared against the same interval's
	// slack-adjusted baseline time, under the same additive thesis
	// definition AppResult.Violated applies at whole-run granularity.
	Intervals          int     // intervals audited
	IntervalViolations int     // intervals beyond the slack-adjusted target
	ViolationMeanPct   float64 // mean violation magnitude (percent, violating intervals)
	ViolationStdPct    float64 // standard deviation of the magnitude

	// Timeline holds the allocation time-series when Options.Timeline is
	// set: one event per setting change per core.
	Timeline []TimelineEvent
}

// TimelineEvent is one resource-allocation change.
type TimelineEvent struct {
	TimeSec float64
	Core    int
	Setting arch.Setting
}

// coreState tracks one application's progress through its phase trace.
type coreState struct {
	bench   string
	id      simdb.BenchID
	phases  []int
	slice   int     // index into phases
	rem     float64 // instructions remaining in the current interval
	stall   float64 // pending reconfiguration stall (seconds)
	setting arch.Setting
	setIdx  int // lattice index of setting

	round      int
	start      float64 // wall time the application was placed on the core
	time       float64 // first-round completion time (relative to start)
	energy     float64 // energy accumulated during round 0
	tpi        float64 // current time per instruction
	epi        float64 // current energy per instruction
	firstRound bool    // true while in round 0

	intervalStart float64 // wall time when the current interval began
	baseTPI       float64 // baseline TPI of the current interval's phase

	// Instruction-weighted allocation usage during round 0.
	usedInstr float64
	usedFreq  float64 // sum of freqGHz x instructions
	usedWays  float64 // sum of ways x instructions

	// stats is the reusable IntervalStats buffer handed to the RMA. The
	// manager DOES retain the pointer beyond Decide (lastStats, read by
	// the uncoordinated scheme on later invocations), so the buffer must
	// be owned by exactly this core: it is rewritten only immediately
	// before this core's own Decide re-stores it, which preserves the
	// per-snapshot semantics a freshly allocated struct would have. The
	// profile slices alias the immutable database records.
	stats core.IntervalStats
}

// Sim is a resumable co-phase simulation: the event loop of Run broken
// into single-event steps, with cores that can be populated (Arrive) and
// vacated (Depart) between events. A Sim is not safe for concurrent use.
type Sim struct {
	db  *simdb.DB
	mgr *core.Manager
	opt Options

	baseIdx int
	cores   []*coreState // index = core ID; nil = unoccupied
	tNow    float64
	events  int

	inFirstRound int // occupied cores still executing their first round

	auditIntervals  int
	auditViolations int
	audit           stats.Running

	completedIntervals int
	retired            float64 // instructions retired across all cores

	timeline []TimelineEvent
	horizon  []float64 // scratch: per-core completion horizon of one step
	finished []int     // scratch: Step's round-completion result buffer
}

// New builds a simulation with one application per core (the closed-world
// workload shape of the papers), every core at the baseline setting. The
// manager must be configured for the same system as the database.
func New(db *simdb.DB, workload []string, mgr *core.Manager, opt Options) (*Sim, error) {
	n := db.Sys.NumCores
	if len(workload) != n {
		return nil, fmt.Errorf("rmasim: workload has %d apps, system has %d cores", len(workload), n)
	}
	s := NewIdle(db, mgr, opt)
	for i, bench := range workload {
		if err := s.Arrive(i, bench); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NewIdle builds a simulation with every core unoccupied; applications are
// placed with Arrive as they enter the system (the open-system shape the
// cluster engine drives).
func NewIdle(db *simdb.DB, mgr *core.Manager, opt Options) *Sim {
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultOptions().MaxEvents
	}
	n := db.Sys.NumCores
	s := &Sim{
		db:      db,
		mgr:     mgr,
		opt:     opt,
		baseIdx: db.BaselineIdx(),
		cores:   make([]*coreState, n),
		horizon: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		mgr.Vacate(i)
	}
	return s
}

// Arrive places an application on an idle core at the current simulation
// time. The core starts its first interval at the baseline setting; the
// manager begins optimizing it after its first completed interval.
func (s *Sim) Arrive(coreID int, bench string) error {
	if coreID < 0 || coreID >= len(s.cores) {
		return fmt.Errorf("rmasim: core %d out of range", coreID)
	}
	if s.cores[coreID] != nil {
		return fmt.Errorf("rmasim: core %d is already occupied", coreID)
	}
	id, ok := s.db.BenchIDOf(bench)
	if !ok {
		return fmt.Errorf("rmasim: no analysis for %s", bench)
	}
	c := &coreState{
		bench:         bench,
		id:            id,
		phases:        s.db.PhaseTraceAt(id),
		rem:           trace.SliceInstructions,
		setting:       s.db.Sys.BaselineSetting(),
		setIdx:        s.baseIdx,
		firstRound:    true,
		start:         s.tNow,
		intervalStart: s.tNow,
	}
	c.refreshRates(s.db)
	c.refreshBaseTPI(s.db, s.baseIdx)
	s.cores[coreID] = c
	s.inFirstRound++
	s.mgr.Occupy(coreID)
	// An arrival invalidates the current partition (the running cores may
	// hold ways the idle curve had released): fall back to the safe equal
	// baseline partition, charging reconfiguration overheads where
	// allocations change, until fresh statistics repartition. At
	// construction time every core is already at the baseline and this is
	// a no-op, keeping Run's closed-world accounting untouched.
	s.applySettings(s.mgr.Rebaseline())
	return nil
}

// Depart removes the application from the core and returns its scored
// result, clearing the manager's per-core history so the next arrival
// inherits nothing. The result is QoS-meaningful once the application has
// completed its first full round (Step reports that); departing earlier
// scores the elapsed time of the unfinished round.
func (s *Sim) Depart(coreID int) (AppResult, error) {
	if coreID < 0 || coreID >= len(s.cores) {
		return AppResult{}, fmt.Errorf("rmasim: core %d out of range", coreID)
	}
	c := s.cores[coreID]
	if c == nil {
		return AppResult{}, fmt.Errorf("rmasim: core %d is idle", coreID)
	}
	app := s.appResult(coreID, c)
	if c.firstRound {
		s.inFirstRound--
	}
	s.cores[coreID] = nil
	s.mgr.Vacate(coreID)
	return app, nil
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.tNow }

// InFirstRound returns how many occupied cores have not yet completed
// their first full round.
//
//qosrma:allow(testonly) BenchmarkRMASimStep restarts its simulation when the first round ends
func (s *Sim) InFirstRound() int { return s.inFirstRound }

// Occupied returns the number of cores currently hosting an application.
func (s *Sim) Occupied() int {
	n := 0
	for _, c := range s.cores {
		if c != nil {
			n++
		}
	}
	return n
}

// Audit returns the interval-level QoS audit counters so far.
func (s *Sim) Audit() (intervals, violations int) {
	return s.auditIntervals, s.auditViolations
}

// TimelineEvents returns the recorded allocation time-series (nil unless
// Options.Timeline is set). The slice is owned by the Sim.
func (s *Sim) TimelineEvents() []TimelineEvent { return s.timeline }

// NextEventTime returns the absolute simulation time of the next interval
// completion, or +Inf when no application is running.
func (s *Sim) NextEventTime() float64 {
	next := math.Inf(1)
	for _, c := range s.cores {
		if c == nil {
			continue
		}
		if t := c.stall + c.rem*c.tpi; t < next {
			next = t
		}
	}
	return s.tNow + next
}

// retire advances a core by instr instructions, charging energy and the
// instruction-weighted allocation usage while the core is in its scored
// first round.
func (s *Sim) retire(c *coreState, instr float64) {
	c.rem -= instr
	s.retired += instr
	if c.firstRound {
		c.energy += instr * c.epi
		c.usedInstr += instr
		c.usedFreq += instr * s.db.Sys.DVFS[c.setting.FreqIdx].FreqGHz
		c.usedWays += instr * float64(c.setting.Ways)
	}
}

// Step advances the simulation past the next interval-completion event:
// every running core advances to the completion horizon, tied completions
// are processed together (QoS audit, RMA invocation, phase advance), and
// the clock moves. It returns the cores whose application finished a full
// execution round during this event — the open-system departure signal —
// in core order; the returned slice is reused by the next Step call. The
// Options.MaxEvents safety net is enforced here, so every caller — Run,
// the cluster engine, direct steppers — shares one budget guard.
//
// Cores whose own completion defines the horizon retire exactly their
// remaining instructions: rem and stall reach exactly zero, so completion
// detection is epsilon-free and no work is dropped between intervals.
//
//qosrma:noalloc
func (s *Sim) Step() ([]int, error) {
	// Find the earliest interval completion. The per-core horizons are
	// kept so the advance loop below can identify completing cores by the
	// exact value that defined the minimum.
	next := math.Inf(1)
	for i, c := range s.cores {
		if c == nil {
			s.horizon[i] = math.Inf(1)
			continue
		}
		t := c.stall + c.rem*c.tpi
		s.horizon[i] = t
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return nil, fmt.Errorf("rmasim: no progress possible")
	}
	if s.events >= s.opt.MaxEvents {
		return nil, fmt.Errorf("rmasim: event budget exhausted with %d apps unfinished", s.inFirstRound)
	}
	s.events++

	// Advance every core by `next` seconds.
	for i, c := range s.cores {
		if c == nil {
			continue
		}
		if s.horizon[i] == next {
			// This core's completion defines the horizon: drain the stall
			// and retire the exact remainder of the interval.
			if c.stall > 0 {
				if c.firstRound {
					c.energy += c.stallWatts(s.db) * c.stall // stalled core still leaks
				}
				c.stall = 0
			}
			s.retire(c, c.rem)
			continue
		}
		dt := next
		if c.stall > 0 {
			burn := math.Min(c.stall, dt)
			c.stall -= burn
			dt -= burn
			if c.firstRound {
				c.energy += c.stallWatts(s.db) * burn
			}
		}
		if dt <= 0 {
			continue
		}
		instr := dt / c.tpi
		if instr > c.rem {
			instr = c.rem
		}
		s.retire(c, instr)
	}
	s.tNow += next

	// Handle completions (ties complete together).
	s.finished = s.finished[:0]
	for coreID, c := range s.cores {
		if c == nil || c.rem != 0 || c.stall != 0 {
			continue
		}
		completed := c.slice

		// Interval-level QoS audit: achieved interval time against the
		// slack-adjusted baseline of the same interval, under the additive
		// thesis definition (excess beyond slack larger than 1% of the
		// baseline), matching AppResult.Violated.
		s.auditIntervals++
		s.completedIntervals++
		base := c.baseTPI * trace.SliceInstructions
		if bad, pct := intervalViolation(s.tNow-c.intervalStart, base, s.mgr.Slack(coreID)); bad {
			s.auditViolations++
			s.audit.Add(pct)
		}
		c.intervalStart = s.tNow

		// Advance to the next interval.
		c.slice++
		if c.slice == len(c.phases) {
			if c.firstRound {
				c.time = s.tNow - c.start
				c.firstRound = false
				s.inFirstRound--
				s.finished = append(s.finished, coreID)
			}
			c.round++
			c.slice = 0
		}
		c.rem = trace.SliceInstructions

		// Invoke the RMA with this core's statistics.
		st := c.gatherStats(s.db, coreID, completed, s.opt.Oracle)
		newSettings, changed := s.mgr.Decide(coreID, st)
		if changed {
			s.applySettings(newSettings)
		}
		// The completing core entered a new interval (possibly a new
		// phase); its rates must be refreshed even when its setting is
		// unchanged.
		c.refreshRates(s.db)
		c.refreshBaseTPI(s.db, s.baseIdx)
	}
	return s.finished, nil
}

// intervalViolation evaluates the interval-level QoS audit: the achieved
// interval time dt against the slack-adjusted baseline base*(1+slack). The
// interval violates when the excess beyond the slack-adjusted target
// exceeds 1% of the baseline — the additive thesis definition, the same
// one AppResult.Violated applies at whole-run granularity. The magnitude
// is the percent excess over the slack-adjusted target.
func intervalViolation(dt, base, slack float64) (violated bool, magnitudePct float64) {
	allowed := base * (1 + slack)
	if dt-allowed > base*0.01 {
		return true, (dt - allowed) / allowed * 100
	}
	return false, 0
}

// AdvanceTo moves the clock to absolute time t without crossing an
// interval completion: every running core advances partially. The caller
// must ensure t does not exceed NextEventTime (the cluster engine does);
// t before the current time is an error.
func (s *Sim) AdvanceTo(t float64) error {
	span := t - s.tNow
	if span < 0 {
		return fmt.Errorf("rmasim: cannot advance to %g, clock is at %g", t, s.tNow)
	}
	if span == 0 {
		return nil
	}
	for _, c := range s.cores {
		if c == nil {
			continue
		}
		dt := span
		if c.stall > 0 {
			burn := math.Min(c.stall, dt)
			c.stall -= burn
			dt -= burn
			if c.firstRound {
				c.energy += c.stallWatts(s.db) * burn
			}
		}
		if dt <= 0 {
			continue
		}
		instr := dt / c.tpi
		if instr > c.rem {
			instr = c.rem
		}
		s.retire(c, instr)
	}
	s.tNow = t
	return nil
}

// Run simulates the workload (one benchmark name per core) under the given
// manager and returns the scored result: the classic closed-world entry
// point, a thin wrapper over the stepper. The manager must be configured
// for the same system as the database.
func Run(db *simdb.DB, workload []string, mgr *core.Manager, opt Options) (*Result, error) {
	sim, err := New(db, workload, mgr, opt)
	if err != nil {
		return nil, err
	}
	for sim.inFirstRound > 0 {
		if _, err := sim.Step(); err != nil {
			return nil, err
		}
	}
	return sim.Result(), nil
}

// Result scores the simulation: one AppResult per occupied core, plus the
// aggregate energy savings and the interval-level QoS audit accumulated so
// far. Run calls it once every first round has completed; open-system
// callers score departures individually through Depart instead.
func (s *Sim) Result() *Result {
	res := &Result{
		Scheme:      s.mgr.Scheme().String(),
		Invocations: s.mgr.Invocations,
	}
	var sumE, sumBaseE float64
	for i, c := range s.cores {
		if c == nil {
			continue
		}
		app := s.appResult(i, c)
		if app.Violated() {
			res.Violations++
		}
		res.Apps = append(res.Apps, app)
		sumE += c.energy
		sumBaseE += app.BaselineEnergy
	}
	if sumBaseE > 0 {
		res.EnergySavings = 1 - sumE/sumBaseE
	}
	res.Intervals = s.auditIntervals
	res.IntervalViolations = s.auditViolations
	res.ViolationMeanPct = s.audit.Mean()
	res.ViolationStdPct = s.audit.StdDev()
	res.Timeline = s.timeline
	return res
}

// appResult scores one core's application against its static baseline.
func (s *Sim) appResult(coreID int, c *coreState) AppResult {
	bt, be := baselineRound(s.db, c.id)
	t := c.time
	if c.firstRound {
		// Unfinished round (early departure): score the elapsed time.
		t = s.tNow - c.start
	}
	app := AppResult{
		Core:           coreID,
		Bench:          c.bench,
		Time:           t,
		Energy:         c.energy,
		BaselineTime:   bt,
		BaselineEnergy: be,
		ExcessTime:     (t - bt) / bt,
		AllowedSlack:   s.mgr.Slack(coreID),
	}
	if c.usedInstr > 0 {
		app.MeanFreqGHz = c.usedFreq / c.usedInstr
		app.MeanWays = c.usedWays / c.usedInstr
	}
	return app
}

// refreshBaseTPI caches the baseline TPI of the core's current interval.
func (c *coreState) refreshBaseTPI(db *simdb.DB, baseIdx int) {
	c.baseTPI = db.PerfAt(c.id, c.phases[c.slice], baseIdx).TPI()
}

// refreshRates updates a core's TPI/EPI for its current interval + setting.
func (c *coreState) refreshRates(db *simdb.DB) {
	c.setRates(db.PerfAt(c.id, c.phases[c.slice], c.setIdx))
}

// setRates installs an interval's performance point as the core's current
// rates.
func (c *coreState) setRates(pt *simdb.PerfPoint) {
	c.tpi = pt.TPI()
	c.epi = pt.EPI()
}

// stallWatts is the power the core draws while it stalls on a
// reconfiguration, at its current interval and setting. It is derived at
// the stall rather than cached with the rates: every change of slice or
// setting refreshes the rates before the next stall drains, so it reads
// the point setRates last installed.
func (c *coreState) stallWatts(db *simdb.DB) float64 {
	return db.PerfAt(c.id, c.phases[c.slice], c.setIdx).StallWatts()
}

// applySettings installs new settings on all occupied cores, charging
// reconfiguration overheads for every core whose allocation changed.
func (s *Sim) applySettings(settings []arch.Setting) {
	sw := s.db.Sys.Switch
	for i, c := range s.cores {
		if c == nil {
			continue
		}
		ns := settings[i]
		old := c.setting
		if ns == old {
			continue
		}
		if s.opt.Timeline {
			s.timeline = append(s.timeline, TimelineEvent{TimeSec: s.tNow, Core: i, Setting: ns})
		}
		var stallNs, extraJ float64
		if ns.FreqIdx != old.FreqIdx {
			stallNs += sw.DVFSTransNs
			extraJ += sw.DVFSTransJ
		}
		if ns.Size != old.Size {
			stallNs += sw.CoreResizeNs
			extraJ += sw.CoreResizeJ
		}
		if gained := ns.Ways - old.Ways; gained > 0 {
			stallNs += sw.WayMigrateNs * float64(gained)
			extraJ += sw.WayMigrateJ * float64(gained)
		}
		c.stall += stallNs * 1e-9
		if c.firstRound {
			c.energy += extraJ
		}
		c.setting = ns
		c.setIdx = s.db.Lattice.Index(ns)
		c.refreshRates(s.db)
	}
}

// gatherStats fills the core's reusable IntervalStats buffer with what the
// RMA observes after the core completed interval `completed`.
//
//qosrma:noalloc
func (c *coreState) gatherStats(db *simdb.DB, coreID, completed int, oracle bool) *core.IntervalStats {
	// Realistic statistics describe the interval that just ended; oracle
	// statistics describe the upcoming one.
	sliceIdx := completed
	if oracle {
		sliceIdx = c.slice
	}
	FillStats(db, c.id, c.phases[sliceIdx], c.setIdx, coreID, oracle, &c.stats)
	return &c.stats
}

// FillStats fills st with the interval statistics the RMA observes for
// one interval of a benchmark phase executed on coreID at the setting
// with lattice index setIdx: perfect statistics (exact profiles and the
// true ILP) when oracle is set, the sampled-ATD profiles otherwise. The
// profile slices alias the immutable database records.
//
// Every field is a function of (id, phase, setIdx, oracle) except Core, so
// FillStats is the one place that sets IntervalStats.Key, the name the
// manager memoizes curves and allocations by.
//
//qosrma:noalloc
func FillStats(db *simdb.DB, id simdb.BenchID, phase, setIdx, coreID int, oracle bool, st *core.IntervalStats) {
	rec := db.RecordAt(id, phase)
	s := db.Lattice.Setting(setIdx)
	*st = core.IntervalStats{
		Core:          coreID,
		Key:           statsKey(id, phase, setIdx, oracle),
		Setting:       s,
		Instr:         trace.SliceInstructions,
		Cycles:        db.PerfAt(id, phase, setIdx).Cycles,
		LLCAccesses:   rec.LLCAccesses(),
		BranchMisses:  rec.BranchMPKI * trace.SliceInstructions / 1000,
		TotalMisses:   rec.MissesAt(s),
		LeadingMisses: rec.LeadingAt(s),
	}
	if oracle {
		st.ATDMisses = rec.Misses
		st.ATDLeading = rec.Leading
		st.IlpIPC = rec.IlpIPC
	} else {
		st.ATDMisses = rec.SampledMisses
		st.ATDLeading = rec.SampledLeading
	}
}

// statsKey packs FillStats' inputs into a nonzero IntervalStats.Key: the
// top bit set, the benchmark in 22 bits, the phase in 16, the lattice
// index in 24 and the oracle flag in the lowest bit. An input outside its
// field leaves the statistics unkeyed rather than aliasing another key.
func statsKey(id simdb.BenchID, phase, setIdx int, oracle bool) uint64 {
	if uint64(id) >= 1<<22 || uint64(phase) >= 1<<16 || uint64(setIdx) >= 1<<24 {
		return 0
	}
	k := 1<<63 | uint64(id)<<41 | uint64(phase)<<25 | uint64(setIdx)<<1
	if oracle {
		k |= 1
	}
	return k
}

// BaselineRound returns the time and energy of one full round of the
// benchmark at the static baseline setting. Under strict partitioning the
// baseline is independent of co-runners, so it can be computed directly
// from the database.
func BaselineRound(db *simdb.DB, bench string) (seconds, joules float64, err error) {
	id, ok := db.BenchIDOf(bench)
	if !ok {
		return 0, 0, fmt.Errorf("rmasim: no analysis for %s", bench)
	}
	seconds, joules = baselineRound(db, id)
	return seconds, joules, nil
}

// baselineRound is the interned fast path of BaselineRound.
func baselineRound(db *simdb.DB, id simdb.BenchID) (seconds, joules float64) {
	baseIdx := db.BaselineIdx()
	for _, phase := range db.PhaseTraceAt(id) {
		pt := db.PerfAt(id, phase, baseIdx)
		seconds += pt.Seconds
		joules += pt.EPI() * trace.SliceInstructions
	}
	return seconds, joules
}

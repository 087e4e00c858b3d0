// Package cluster implements an open-system, fleet-of-machines simulator
// on top of the resumable co-phase stepper (internal/rmasim) — the first
// scenario class beyond the papers' fixed one-round mixes, and the
// dynamic-workload direction the thesis' scheduler-guidance chapter
// motivates. Jobs arrive from a deterministic trace (internal/workload's
// arrival generators), are placed online onto the machine where the
// collocation scorer (internal/sched) predicts the largest energy savings,
// execute one full round under the machine's own resource-management
// algorithm, and depart on completion; when every core in the fleet is
// busy, arrivals wait in a FIFO queue and are admitted as cores free up.
//
// Machines interact only through placement and the queue, so between
// placement decisions they decouple: the engine advances all machines to
// the next arrival in parallel on a bounded worker pool, falling back to a
// sequential global event order only while the queue is non-empty (when a
// departure anywhere admits the next waiting job). Results are bit-for-bit
// independent of the worker count: per-machine event sequences are
// deterministic, and cross-machine departure logs are merged in
// (time, machine, core) order.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/equilibrium"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/sched"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/workload"
)

// Placement selects the online placement policy.
type Placement int

const (
	// PlaceScored places each arrival on the machine where the collocation
	// scorer predicts the largest energy savings for the resulting tenant
	// set — the thesis' scheduler-guidance proposal, applied online.
	PlaceScored Placement = iota
	// PlaceFirstFit places each arrival on the lowest-numbered machine
	// with a free core — the guidance-free reference policy.
	PlaceFirstFit
	// PlaceEquilibrium places each arrival where it sits in a certified
	// pure Nash equilibrium of the collocation game: on every arrival the
	// engine solves for the equilibrium assignment of all present tenants
	// plus the arrival (best-response dynamics on the scorer oracle,
	// warm-started from the fleet's current layout), then admits the
	// arrival to its equilibrium machine. Running tenants never migrate —
	// the equilibrium is the placement's lookahead, not a physical
	// reshuffle. The policy falls back to scored placement for an arrival
	// whose game has no certified equilibrium, or whose equilibrium
	// machine has no physically free core (a tenant moved off it only
	// virtually); Result counts both.
	PlaceEquilibrium
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case PlaceScored:
		return "scored"
	case PlaceFirstFit:
		return "first-fit"
	case PlaceEquilibrium:
		return "equilibrium"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Spec describes one cluster scenario.
type Spec struct {
	// Machines is the fleet size; every machine has the database's
	// configuration (core count, LLC, DVFS levels).
	Machines int
	// Scheme and Model configure every machine's resource manager.
	Scheme core.Scheme
	Model  core.ModelKind
	// Slack is the uniform QoS relaxation granted to every job.
	Slack float64
	// Jobs is the arrival trace, sorted by the engine before use.
	Jobs []workload.Arrival
	// Placement selects the online placement policy (default: scored).
	Placement Placement
	// Timeline records every machine's allocation time-series.
	Timeline bool
	// Workers bounds the parallel machine advance (default: GOMAXPROCS).
	Workers int
	// Emitter, when set, receives one row per job in global departure
	// order as the simulation progresses.
	Emitter emit.Emitter[Row]
}

// JobResult is the scored outcome of one job.
type JobResult struct {
	Job       workload.Arrival
	Machine   int
	Core      int
	StartSec  float64 // placement time: arrival plus any queueing delay
	WaitSec   float64 // time spent in the admission queue
	FinishSec float64 // departure time
	App       rmasim.AppResult
}

// MachineResult summarizes one machine's share of the scenario.
type MachineResult struct {
	Jobs        int     // jobs the machine executed
	BusyCoreSec float64 // summed per-job core-occupancy seconds
	Invocations int     // RMA invocations on this machine
	// Timeline is the allocation time-series (Spec.Timeline only).
	Timeline []rmasim.TimelineEvent
}

// Result is the outcome of one cluster scenario.
type Result struct {
	Scheme    string
	Placement string
	Jobs      []JobResult // in arrival order
	Machines  []MachineResult

	// EnergySavings is the fleet aggregate: 1 - sum(job energy) /
	// sum(baseline job energy).
	EnergySavings float64
	// Violations counts jobs that missed their (slack-adjusted) QoS.
	Violations int
	// Queueing behaviour of the open system.
	MeanWaitSec float64
	MaxWaitSec  float64
	// MakespanSec is the departure time of the last job.
	MakespanSec float64
	// Interval-level QoS audit aggregated across machines.
	Intervals          int
	IntervalViolations int
	// EquilibriumFallbacks counts the arrivals equilibrium placement
	// handed to scored placement (zero under the other policies).
	// NoEquilibrium counts those of them whose game had no certified
	// equilibrium (equilibrium.ErrNoEquilibrium); the rest had an
	// equilibrium machine with no physically free core.
	EquilibriumFallbacks int
	NoEquilibrium        int
}

// departure is one job leaving a machine.
type departure struct {
	time    float64
	machine int
	coreID  int
	job     int // index into the engine's sorted job list
	app     rmasim.AppResult
}

// noTenant marks an idle core in machine.ids.
const noTenant simdb.BenchID = -1

// machine is one simulated host: a resumable co-phase simulation plus the
// occupancy bookkeeping the placement loop reads.
type machine struct {
	id    int
	sim   *rmasim.Sim
	mgr   *core.Manager
	ids   []simdb.BenchID // per-core tenant benchmark (noTenant = idle)
	jobOn []int           // per-core job index (-1 = idle)
	free  int
}

// stepOnce processes one completion event and departs any jobs that
// finished their round during it. The per-machine event budget is
// enforced by the stepper itself (Options.MaxEvents).
func (m *machine) stepOnce() ([]departure, error) {
	finished, err := m.sim.Step()
	if err != nil {
		return nil, fmt.Errorf("cluster: machine %d: %w", m.id, err)
	}
	var deps []departure
	for _, coreID := range finished {
		app, err := m.sim.Depart(coreID)
		if err != nil {
			return deps, fmt.Errorf("cluster: machine %d: %w", m.id, err)
		}
		deps = append(deps, departure{
			time: m.sim.Now(), machine: m.id, coreID: coreID,
			job: m.jobOn[coreID], app: app,
		})
		m.ids[coreID] = noTenant
		m.jobOn[coreID] = -1
		m.free++
	}
	return deps, nil
}

// advanceTo runs the machine to absolute time t, processing every
// completion on the way (machine-local: only valid while the admission
// queue is empty, when departures cannot affect other machines).
func (m *machine) advanceTo(t float64) ([]departure, error) {
	var deps []departure
	for m.sim.NextEventTime() <= t {
		d, err := m.stepOnce()
		deps = append(deps, d...)
		if err != nil {
			return deps, err
		}
	}
	if err := m.sim.AdvanceTo(t); err != nil {
		return deps, err
	}
	return deps, nil
}

// drain runs the machine until every tenant has departed.
func (m *machine) drain() ([]departure, error) {
	var deps []departure
	for m.sim.Occupied() > 0 {
		d, err := m.stepOnce()
		deps = append(deps, d...)
		if err != nil {
			return deps, err
		}
	}
	return deps, nil
}

// tenants appends the machine's current applications to buf.
func (m *machine) tenants(buf []simdb.BenchID) []simdb.BenchID {
	for _, id := range m.ids {
		if id != noTenant {
			buf = append(buf, id)
		}
	}
	return buf
}

// engine carries one scenario execution.
type engine struct {
	db       *simdb.DB
	spec     Spec
	jobs     []workload.Arrival
	jobIDs   []simdb.BenchID // interned benchmark of each job
	machines []*machine
	scorer   *sched.Scorer
	results  []JobResult
	placed   []bool
	done     []bool
	queue    []int // indices into jobs, FIFO

	// Placement scratch, held on the engine so the per-arrival scoring
	// loop is allocation-free on warm scorer caches: the candidate tenant
	// tuple and the scorer's curve/DP buffers (sched.ScoreBuf).
	tenantBuf []simdb.BenchID
	scoreBuf  sched.ScoreBuf
	// Equilibrium-placement scratch (player list and warm-start profile)
	// and fallback counters.
	eqPlayers     []simdb.BenchID
	eqInitial     []int
	fallbacks     int
	noEquilibrium int
}

// Run executes the scenario against the database and returns the fleet
// result. The run is deterministic: a fixed Spec (and the deterministic
// database) reproduces identical results and emitted rows bit for bit,
// regardless of Workers.
func Run(db *simdb.DB, spec Spec) (*Result, error) {
	if spec.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", spec.Machines)
	}
	if len(spec.Jobs) == 0 {
		return nil, errors.New("cluster: no jobs in the arrival trace")
	}
	if spec.Workers < 1 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}

	e := &engine{db: db, spec: spec, scorer: sched.NewScorer(db)}
	e.jobs = append([]workload.Arrival(nil), spec.Jobs...)
	sort.SliceStable(e.jobs, func(i, j int) bool {
		if e.jobs[i].TimeSec != e.jobs[j].TimeSec {
			return e.jobs[i].TimeSec < e.jobs[j].TimeSec
		}
		return e.jobs[i].ID < e.jobs[j].ID
	})
	e.jobIDs = make([]simdb.BenchID, len(e.jobs))
	for i, j := range e.jobs {
		id, ok := db.BenchIDOf(j.Bench)
		if !ok {
			return nil, fmt.Errorf("cluster: no analysis for %s (job %d)", j.Bench, j.ID)
		}
		e.jobIDs[i] = id
		if j.TimeSec < 0 {
			return nil, fmt.Errorf("cluster: job %d arrives at negative time %g", j.ID, j.TimeSec)
		}
	}

	n := db.Sys.NumCores
	slack := make([]float64, n)
	for i := range slack {
		slack[i] = spec.Slack
	}
	e.machines = make([]*machine, spec.Machines)
	for i := range e.machines {
		mgr := core.NewManager(core.Config{
			Sys:    db.Sys,
			Power:  power.DefaultParams(db.Sys),
			Scheme: spec.Scheme,
			Model:  spec.Model,
			Slack:  slack,
		})
		opt := rmasim.DefaultOptions()
		opt.Timeline = spec.Timeline
		e.machines[i] = &machine{
			id:    i,
			sim:   rmasim.NewIdle(db, mgr, opt),
			mgr:   mgr,
			ids:   make([]simdb.BenchID, n),
			jobOn: make([]int, n),
			free:  n,
		}
		for c := range e.machines[i].jobOn {
			e.machines[i].ids[c] = noTenant
			e.machines[i].jobOn[c] = -1
		}
	}
	e.results = make([]JobResult, len(e.jobs))
	e.placed = make([]bool, len(e.jobs))
	e.done = make([]bool, len(e.jobs))

	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish()
}

// run drives the global arrival/departure loop.
func (e *engine) run() error {
	ai := 0
	for {
		if len(e.queue) == 0 {
			if ai < len(e.jobs) {
				// Advance the whole fleet to the next arrival in parallel
				// (with an empty queue, machines are decoupled), then place.
				if err := e.parallelEach(func(m *machine) ([]departure, error) {
					return m.advanceTo(e.jobs[ai].TimeSec)
				}); err != nil {
					return err
				}
				if err := e.place(ai); err != nil {
					return err
				}
				ai++
				continue
			}
			// No arrivals left: drain the fleet in parallel and stop.
			return e.parallelEach((*machine).drain)
		}

		// Overloaded: every core in the fleet is busy (the queue invariant)
		// and the next event — an arrival joining the queue, or the
		// earliest departure anywhere admitting its head — must be
		// processed in global time order.
		tArr := math.Inf(1)
		if ai < len(e.jobs) {
			tArr = e.jobs[ai].TimeSec
		}
		next, nextT := -1, math.Inf(1)
		for _, m := range e.machines {
			if t := m.sim.NextEventTime(); t < nextT {
				next, nextT = m.id, t
			}
		}
		if next < 0 && math.IsInf(tArr, 1) {
			return errors.New("cluster: queued jobs but no running work (internal invariant broken)")
		}
		if tArr < nextT {
			e.queue = append(e.queue, ai)
			ai++
			continue
		}
		m := e.machines[next]
		deps, err := m.stepOnce()
		if cerr := e.collect(deps); cerr != nil {
			return cerr
		}
		if err != nil {
			return err
		}
		for _, d := range deps {
			if len(e.queue) == 0 {
				break
			}
			ji := e.queue[0]
			e.queue = e.queue[1:]
			if err := e.admit(ji, m, d.time); err != nil {
				return err
			}
		}
	}
}

// place assigns an arriving job to a machine (or queues it when the fleet
// is full). With scored placement, every machine with a free core is
// scored with the arrival added to its tenants and the best predicted
// collocation wins; ties keep the lowest machine index. Equilibrium
// placement solves the collocation game first and falls back to the
// scored choice when no certified equilibrium (or no physically free
// equilibrium slot) exists.
func (e *engine) place(ji int) error {
	job, id := e.jobs[ji], e.jobIDs[ji]
	best := -1
	if e.spec.Placement == PlaceFirstFit {
		for _, m := range e.machines {
			if m.free > 0 {
				best = m.id
				break
			}
		}
	} else {
		var err error
		if e.spec.Placement == PlaceEquilibrium {
			best, err = e.pickEquilibrium(id)
		}
		if err != nil {
			return err
		}
		if best < 0 {
			if best, err = e.pickScored(id); err != nil {
				return err
			}
		}
	}
	if best < 0 {
		e.queue = append(e.queue, ji)
		return nil
	}
	return e.admit(ji, e.machines[best], job.TimeSec)
}

// pickScored returns the free machine where the scorer predicts the
// best collocation for the arriving benchmark (-1 when the fleet is
// full). It runs on the engine-held scratch (tenantBuf/scoreBuf), so on
// warm scorer caches the whole loop performs zero heap allocations —
// pinned by TestPlacementLoopAllocationFree.
//
//qosrma:noalloc
func (e *engine) pickScored(id simdb.BenchID) (int, error) {
	best, bestScore := -1, math.Inf(-1)
	for _, m := range e.machines {
		if m.free == 0 {
			continue
		}
		e.tenantBuf = m.tenants(e.tenantBuf[:0])
		e.tenantBuf = append(e.tenantBuf, id)
		s, err := e.scorer.ScoreIDs(e.tenantBuf, &e.scoreBuf)
		if err != nil {
			return -1, err
		}
		if s > bestScore {
			best, bestScore = m.id, s
		}
	}
	return best, nil
}

// pickEquilibrium solves the placement game for the current tenants plus
// the arriving benchmark and returns the arrival's machine in the best
// certified pure Nash equilibrium. The solve is seeded from the arrival's
// position in the job order, so runs are bit-deterministic regardless of
// Workers. It returns -1 (caller falls back to scored placement) when the
// fleet is full, no start certifies an equilibrium, or the equilibrium
// machine has no physically free core; the last two count as fallbacks.
// Any other solver error is returned.
func (e *engine) pickEquilibrium(id simdb.BenchID) (int, error) {
	free := 0
	e.eqPlayers = e.eqPlayers[:0]
	e.eqInitial = e.eqInitial[:0]
	for _, m := range e.machines {
		free += m.free
		for _, tenant := range m.ids {
			if tenant != noTenant {
				e.eqPlayers = append(e.eqPlayers, tenant)
				e.eqInitial = append(e.eqInitial, m.id)
			}
		}
	}
	if free == 0 {
		return -1, nil
	}
	// Warm-start the arrival on the lowest-indexed free machine.
	arrival := len(e.eqPlayers)
	e.eqPlayers = append(e.eqPlayers, id)
	for _, m := range e.machines {
		if m.free > 0 {
			e.eqInitial = append(e.eqInitial, m.id)
			break
		}
	}
	eq, err := equilibrium.SolveIDs(e.scorer, e.eqPlayers, equilibrium.Config{
		Machines: len(e.machines),
		Capacity: e.db.Sys.NumCores,
		Seed:     stats.SeedFrom(uint64(arrival), "cluster/equilibrium-place"),
		Initial:  e.eqInitial,
	})
	if errors.Is(err, equilibrium.ErrNoEquilibrium) {
		// A game without a certified equilibrium is not a scenario
		// error: degrade to scored placement deterministically.
		e.fallbacks++
		e.noEquilibrium++
		return -1, nil
	}
	if err != nil {
		return -1, err
	}
	if m := e.machines[eq.Assignment[arrival]]; m.free > 0 {
		return m.id, nil
	}
	e.fallbacks++
	return -1, nil
}

// admit places job ji on the machine's lowest free core at time t.
func (e *engine) admit(ji int, m *machine, t float64) error {
	job := e.jobs[ji]
	coreID := -1
	for c, tenant := range m.jobOn {
		if tenant == -1 {
			coreID = c
			break
		}
	}
	if coreID < 0 {
		return fmt.Errorf("cluster: admit to full machine %d", m.id)
	}
	if err := m.sim.Arrive(coreID, job.Bench); err != nil {
		return err
	}
	m.ids[coreID] = e.jobIDs[ji]
	m.jobOn[coreID] = ji
	m.free--
	e.placed[ji] = true
	e.results[ji] = JobResult{
		Job:      job,
		Machine:  m.id,
		Core:     coreID,
		StartSec: t,
		WaitSec:  t - job.TimeSec,
	}
	return nil
}

// collect records departures (already in deterministic order) and streams
// them to the emitter. An emitter failure aborts the scenario immediately
// rather than simulating the rest of the fleet for a result that cannot
// be delivered; departures later in the batch are still recorded first so
// the engine's bookkeeping stays consistent.
func (e *engine) collect(deps []departure) error {
	var emitErr error
	for _, d := range deps {
		r := &e.results[d.job]
		r.FinishSec = d.time
		r.App = d.app
		e.done[d.job] = true
		if e.spec.Emitter != nil && emitErr == nil {
			emitErr = e.spec.Emitter.Emit(rowOf(*r))
		}
	}
	if emitErr != nil {
		return fmt.Errorf("cluster: emit: %w", emitErr)
	}
	return nil
}

// parallelEach runs f over every machine on the worker pool and collects
// the departures merged in (time, machine, core) order. Machines touch
// only their own state, so the pool needs no locking.
func (e *engine) parallelEach(f func(*machine) ([]departure, error)) error {
	deps := make([][]departure, len(e.machines))
	errs := make([]error, len(e.machines))
	sem := make(chan struct{}, e.spec.Workers)
	var wg sync.WaitGroup
	for i, m := range e.machines {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, m *machine) {
			defer wg.Done()
			defer func() { <-sem }()
			deps[i], errs[i] = f(m)
		}(i, m)
	}
	wg.Wait()
	var merged []departure
	for _, d := range deps {
		merged = append(merged, d...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].time != merged[j].time {
			return merged[i].time < merged[j].time
		}
		if merged[i].machine != merged[j].machine {
			return merged[i].machine < merged[j].machine
		}
		return merged[i].coreID < merged[j].coreID
	})
	if err := e.collect(merged); err != nil {
		return errors.Join(append(errs, err)...)
	}
	return errors.Join(errs...)
}

// finish validates completion and aggregates the fleet result.
func (e *engine) finish() (*Result, error) {
	res := &Result{
		Scheme:               e.spec.Scheme.String(),
		Placement:            e.spec.Placement.String(),
		Jobs:                 e.results,
		Machines:             make([]MachineResult, len(e.machines)),
		EquilibriumFallbacks: e.fallbacks,
		NoEquilibrium:        e.noEquilibrium,
	}
	var sumE, sumBaseE, sumWait float64
	for ji := range e.results {
		r := &e.results[ji]
		if !e.placed[ji] || !e.done[ji] {
			return nil, fmt.Errorf("cluster: job %d never completed (internal invariant broken)", r.Job.ID)
		}
		sumE += r.App.Energy
		sumBaseE += r.App.BaselineEnergy
		sumWait += r.WaitSec
		if r.WaitSec > res.MaxWaitSec {
			res.MaxWaitSec = r.WaitSec
		}
		if r.FinishSec > res.MakespanSec {
			res.MakespanSec = r.FinishSec
		}
		if r.App.Violated() {
			res.Violations++
		}
		mr := &res.Machines[r.Machine]
		mr.Jobs++
		mr.BusyCoreSec += r.FinishSec - r.StartSec
	}
	if sumBaseE > 0 {
		res.EnergySavings = 1 - sumE/sumBaseE
	}
	res.MeanWaitSec = sumWait / float64(len(e.results))
	for i, m := range e.machines {
		res.Machines[i].Invocations = m.mgr.Invocations
		res.Machines[i].Timeline = m.sim.TimelineEvents()
		intervals, violations := m.sim.Audit()
		res.Intervals += intervals
		res.IntervalViolations += violations
	}
	return res, nil
}

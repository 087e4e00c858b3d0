package rmasim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

// runReference is a direct port of the pre-stepper one-shot event loop
// (with this PR's exact-completion accounting and additive interval
// audit): the property tests pin Run — now a thin wrapper over the
// resumable Sim — to it, so any drift in the stepper's event ordering,
// stall handling or scoring shows up as a bit-level mismatch.
func runReference(db *simdb.DB, workload []string, mgr *core.Manager, opt Options) (*Result, error) {
	n := db.Sys.NumCores
	if len(workload) != n {
		return nil, nil
	}
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultOptions().MaxEvents
	}
	baseSetting := db.Sys.BaselineSetting()
	baseIdx := db.Lattice.Index(baseSetting)
	cores := make([]*coreState, n)
	for i, bench := range workload {
		id, ok := db.BenchIDOf(bench)
		if !ok {
			return nil, nil
		}
		cores[i] = &coreState{
			bench:      bench,
			id:         id,
			phases:     db.PhaseTraceAt(id),
			rem:        trace.SliceInstructions,
			setting:    baseSetting,
			setIdx:     baseIdx,
			firstRound: true,
		}
		cores[i].refreshRates(db)
		cores[i].refreshBaseTPI(db, baseIdx)
	}

	var timeline []TimelineEvent
	apply := func(settings []arch.Setting, tNow float64) {
		sw := db.Sys.Switch
		for i, c := range cores {
			ns := settings[i]
			old := c.setting
			if ns == old {
				continue
			}
			if opt.Timeline {
				timeline = append(timeline, TimelineEvent{TimeSec: tNow, Core: i, Setting: ns})
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
			c.setIdx = db.Lattice.Index(ns)
			c.refreshRates(db)
		}
	}

	remaining := n
	tNow := 0.0
	var audit stats.Running
	auditIntervals, auditViolations := 0, 0
	horizon := make([]float64, n)
	for ev := 0; ev < opt.MaxEvents && remaining > 0; ev++ {
		next := math.Inf(1)
		for i, c := range cores {
			t := c.stall + c.rem*c.tpi
			horizon[i] = t
			if t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			return nil, nil
		}
		for i, c := range cores {
			if horizon[i] == next {
				if c.stall > 0 {
					if c.firstRound {
						c.energy += c.stallWatts(db) * c.stall
					}
					c.stall = 0
				}
				instr := c.rem
				c.rem = 0
				if c.firstRound {
					c.energy += instr * c.epi
					c.usedInstr += instr
					c.usedFreq += instr * db.Sys.DVFS[c.setting.FreqIdx].FreqGHz
					c.usedWays += instr * float64(c.setting.Ways)
				}
				continue
			}
			dt := next
			if c.stall > 0 {
				burn := math.Min(c.stall, dt)
				c.stall -= burn
				dt -= burn
				if c.firstRound {
					c.energy += c.stallWatts(db) * burn
				}
			}
			if dt <= 0 {
				continue
			}
			instr := dt / c.tpi
			if instr > c.rem {
				instr = c.rem
			}
			c.rem -= instr
			if c.firstRound {
				c.energy += instr * c.epi
				c.usedInstr += instr
				c.usedFreq += instr * db.Sys.DVFS[c.setting.FreqIdx].FreqGHz
				c.usedWays += instr * float64(c.setting.Ways)
			}
		}
		tNow += next

		for coreID, c := range cores {
			if c.rem != 0 || c.stall != 0 {
				continue
			}
			completed := c.slice
			auditIntervals++
			base := c.baseTPI * trace.SliceInstructions
			if bad, pct := intervalViolation(tNow-c.intervalStart, base, mgr.Slack(coreID)); bad {
				auditViolations++
				audit.Add(pct)
			}
			c.intervalStart = tNow

			c.slice++
			if c.slice == len(c.phases) {
				if c.firstRound {
					c.time = tNow
					c.firstRound = false
					remaining--
				}
				c.round++
				c.slice = 0
			}
			c.rem = trace.SliceInstructions

			st := c.gatherStats(db, coreID, completed, opt.Oracle)
			newSettings, changed := mgr.Decide(coreID, st)
			if changed {
				apply(newSettings, tNow)
			}
			c.refreshRates(db)
			c.refreshBaseTPI(db, baseIdx)
		}
	}
	if remaining > 0 {
		return nil, nil
	}

	res := &Result{Scheme: mgr.Scheme().String(), Invocations: mgr.Invocations}
	var sumE, sumBaseE float64
	for i, c := range cores {
		bt, be := baselineRound(db, c.id)
		app := AppResult{
			Core:           i,
			Bench:          c.bench,
			Time:           c.time,
			Energy:         c.energy,
			BaselineTime:   bt,
			BaselineEnergy: be,
			ExcessTime:     (c.time - bt) / bt,
			AllowedSlack:   mgr.Slack(i),
		}
		if c.usedInstr > 0 {
			app.MeanFreqGHz = c.usedFreq / c.usedInstr
			app.MeanWays = c.usedWays / c.usedInstr
		}
		if app.Violated() {
			res.Violations++
		}
		res.Apps = append(res.Apps, app)
		sumE += c.energy
		sumBaseE += be
	}
	res.EnergySavings = 1 - sumE/sumBaseE
	res.Intervals = auditIntervals
	res.IntervalViolations = auditViolations
	res.ViolationMeanPct = audit.Mean()
	res.ViolationStdPct = audit.StdDev()
	res.Timeline = timeline
	return res, nil
}

var (
	customOnce sync.Once
	customDB   *simdb.DB
	customErr  error
)

// customDB2 builds the tiny two-benchmark 2-core database shared by the
// stepper tests (fast enough to run even in -short mode... it is not: the
// detailed simulation still takes a second, so short mode skips).
func customDB2(t *testing.T) *simdb.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping database build in -short mode")
	}
	customOnce.Do(func() {
		sys := arch.DefaultSystemConfig(2)
		customDB, customErr = simdb.Build(sys, customSuite(), simdb.DefaultBuildOptions())
	})
	if customErr != nil {
		t.Fatal(customErr)
	}
	return customDB
}

var customWorkload = []string{"it-hungry", "it-frugal"}

func TestRunMatchesReferenceLoop(t *testing.T) {
	db := customDB2(t)
	cases := []struct {
		name   string
		scheme core.Scheme
		model  core.ModelKind
		slack  []float64
		oracle bool
		tl     bool
	}{
		{"static", core.SchemeStatic, core.Model2, nil, false, false},
		{"dvfs-only", core.SchemeDVFSOnly, core.Model2, nil, false, false},
		{"rm2-realistic", core.SchemeCoordDVFSCache, core.Model2, nil, false, false},
		{"rm2-slack-timeline", core.SchemeCoordDVFSCache, core.Model2, []float64{0.4, 0.2}, false, true},
		{"rm3-oracle", core.SchemeCoordCoreDVFSCache, core.Model3, nil, true, false},
		{"ucp-uncoordinated", core.SchemeUCPDVFS, core.Model2, nil, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Oracle = tc.oracle
			opt.Timeline = tc.tl
			got, err := Run(db, customWorkload, newMgr(db, tc.scheme, tc.model, tc.slack), opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runReference(db, customWorkload, newMgr(db, tc.scheme, tc.model, tc.slack), opt)
			if err != nil || want == nil {
				t.Fatalf("reference run failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stepper Run diverged from the reference loop:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestRunMatchesReferenceLoopFullSuite(t *testing.T) {
	db := testDB(t)
	opt := DefaultOptions()
	got, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runReference(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil), opt)
	if err != nil || want == nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stepper Run diverged from the reference loop on the full suite")
	}
}

// TestExactInstructionAccounting pins the satellite fix for the asymmetric
// completion epsilons: interval completions are exact (rem and stall reach
// exactly zero), so the retired-instruction total equals completed
// intervals x SliceInstructions plus the in-flight partial intervals, with
// only accumulated rounding — no 1e-3-instruction drops per interval.
func TestExactInstructionAccounting(t *testing.T) {
	db := customDB2(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	sim, err := New(db, customWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for sim.InFirstRound() > 0 {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	expected := float64(sim.completedIntervals) * trace.SliceInstructions
	for _, c := range sim.cores {
		expected += trace.SliceInstructions - c.rem // in-flight partial interval
	}
	if sim.completedIntervals < 100 {
		t.Fatalf("scenario too small to be meaningful: %d intervals", sim.completedIntervals)
	}
	// The two totals are computed by different summations (incremental
	// retirement vs completed-interval count), so they agree only up to
	// accumulator rounding — ~1e-14 relative at the 1e11-instruction scale
	// of this run, far below any real instruction drop.
	if diff := math.Abs(sim.retired - expected); diff > 1e-12*expected {
		t.Fatalf("retired %.6f instructions, want %.6f (diff %g): completion drops instructions",
			sim.retired, expected, diff)
	}
}

// TestIntervalAuditAdditive pins the satellite fix for the QoS-violation
// definition mismatch: the interval audit and AppResult.Violated now share
// the additive thesis definition (excess beyond slack larger than 1% of
// the baseline). The old multiplicative audit margin (dt > allowed*1.01,
// with allowed already slack-adjusted) accepted dt = base*1.412 at 40%
// slack; the additive rule correctly flags it.
func TestIntervalAuditAdditive(t *testing.T) {
	const base, slack = 1.0, 0.4
	cases := []struct {
		dt       float64
		violated bool
	}{
		{base * 1.405, false}, // within slack + 1%
		{base * 1.409, false}, // just inside the additive margin
		{base * 1.412, true},  // regression: multiplicative margin accepted this
		{base * 1.5, true},
	}
	for _, tc := range cases {
		bad, pct := intervalViolation(tc.dt, base, slack)
		if bad != tc.violated {
			t.Fatalf("intervalViolation(%v, %v, %v) = %v, want %v", tc.dt, base, slack, bad, tc.violated)
		}
		// The two counters must agree: an application whose whole run shows
		// the same relative excess is violated under the same conditions.
		app := AppResult{ExcessTime: (tc.dt - base) / base, AllowedSlack: slack}
		if app.Violated() != tc.violated {
			t.Fatalf("AppResult.Violated disagrees with the interval audit at dt=%v", tc.dt)
		}
		if bad && pct <= 0 {
			t.Fatalf("violating interval with non-positive magnitude %v", pct)
		}
	}
	// Zero slack: the 1%-of-baseline margin is unchanged from the paper.
	if bad, _ := intervalViolation(1.009, 1, 0); bad {
		t.Fatal("sub-1% interval excess must not count")
	}
	if bad, _ := intervalViolation(1.011, 1, 0); !bad {
		t.Fatal("1.1% interval excess must count")
	}
}

// TestSetRatesZeroDuration pins the rule against stale stall power: a
// stall is charged at the power of the point the core runs at, and a
// degenerate zero-duration point draws none, rather than the previous
// setting's rate.
func TestSetRatesZeroDuration(t *testing.T) {
	if w := (&simdb.PerfPoint{Seconds: 0, Energy: simdb.PointEnergy{J: 1, StallJ: 6}}).StallWatts(); w != 0 {
		t.Fatalf("stall watts = %v at a zero-duration point, want 0", w)
	}
	if w := (&simdb.PerfPoint{Seconds: 2, Energy: simdb.PointEnergy{J: 10, StallJ: 6}}).StallWatts(); w != 3 {
		t.Fatalf("stall watts = %v, want 3", w)
	}
}

func TestArriveDepartLifecycle(t *testing.T) {
	db := customDB2(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model3, nil)
	sim := NewIdle(db, mgr, DefaultOptions())

	if n := sim.Occupied(); n != 0 {
		t.Fatalf("idle sim occupied = %d", n)
	}
	if !math.IsInf(sim.NextEventTime(), 1) {
		t.Fatal("idle sim must have no next event")
	}
	if _, err := sim.Step(); err == nil {
		t.Fatal("stepping an empty sim must fail")
	}
	if _, err := sim.Depart(0); err == nil {
		t.Fatal("departing an idle core must fail")
	}
	if err := sim.Arrive(0, "nosuch"); err == nil {
		t.Fatal("arriving an unknown benchmark must fail")
	}

	if err := sim.Arrive(0, "it-hungry"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Arrive(0, "it-frugal"); err == nil {
		t.Fatal("double occupancy must fail")
	}

	// Run the lone application to round completion and depart it.
	var done bool
	for !done {
		finished, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range finished {
			if id != 0 {
				t.Fatalf("unexpected finisher %d", id)
			}
			done = true
		}
	}
	app, err := sim.Depart(0)
	if err != nil {
		t.Fatal(err)
	}
	if app.Bench != "it-hungry" || app.Time <= 0 || app.Energy <= 0 {
		t.Fatalf("degenerate departure result %+v", app)
	}
	// Alone on the machine the application must meet its QoS.
	if app.Violated() {
		t.Fatalf("lone application violated QoS: excess %.4f", app.ExcessTime)
	}
	if sim.Occupied() != 0 {
		t.Fatal("core still occupied after departure")
	}

	// The core is reusable, and the second tenant starts a fresh round at
	// the current (advanced) time.
	if err := sim.Arrive(0, "it-frugal"); err != nil {
		t.Fatal(err)
	}
	if c := sim.cores[0]; c == nil || c.bench != "it-frugal" || c.start != sim.Now() {
		t.Fatalf("bad core state after re-arrival: %+v", c)
	}
}

// TestStaggeredArrivalsDeterministic drives an open-system scenario — a
// second application arriving mid-run, both departing on completion — and
// pins determinism across independent executions.
func TestStaggeredArrivalsDeterministic(t *testing.T) {
	db := customDB2(t)
	scenario := func() []AppResult {
		mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model3, nil)
		sim := NewIdle(db, mgr, DefaultOptions())
		if err := sim.Arrive(0, "it-hungry"); err != nil {
			t.Fatal(err)
		}
		// Let the first app run for a while, then inject the second at an
		// arbitrary instant between interval completions.
		mid := sim.NextEventTime() * 7.5
		for sim.NextEventTime() <= mid {
			if _, err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.AdvanceTo(mid); err != nil {
			t.Fatal(err)
		}
		if err := sim.Arrive(1, "it-frugal"); err != nil {
			t.Fatal(err)
		}
		var out []AppResult
		for sim.Occupied() > 0 {
			finished, err := sim.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range finished {
				app, err := sim.Depart(id)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, app)
			}
		}
		return out
	}
	a, b := scenario(), scenario()
	if len(a) != 2 {
		t.Fatalf("expected 2 departures, got %d", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("open-system scenario not deterministic:\n%+v\n%+v", a, b)
	}
	for _, app := range a {
		if app.Time <= 0 || app.Violated() {
			t.Fatalf("departure %+v violated or degenerate", app)
		}
	}
}

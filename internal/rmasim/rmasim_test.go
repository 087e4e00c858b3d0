package rmasim

import (
	"math"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

// testDB builds one full-suite 4-core database shared across tests.
func testDB(t *testing.T) *simdb.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second database build in -short mode")
	}
	dbOnce.Do(func() {
		sys := arch.DefaultSystemConfig(4)
		dbInst, dbErr = simdb.Build(sys, trace.Suite(), simdb.DefaultBuildOptions())
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbInst
}

func newMgr(db *simdb.DB, scheme core.Scheme, kind core.ModelKind, slack []float64) *core.Manager {
	return core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: scheme,
		Model:  kind,
		Slack:  slack,
	})
}

var mixedWorkload = []string{"mcf", "soplex", "hmmer", "namd"}

func TestStaticRunMatchesBaseline(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeStatic, core.Model2, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("static run has %d violations", res.Violations)
	}
	if math.Abs(res.EnergySavings) > 1e-6 {
		t.Fatalf("static run saves %v, want 0", res.EnergySavings)
	}
	for _, a := range res.Apps {
		if math.Abs(a.ExcessTime) > 1e-6 {
			t.Fatalf("%s: static excess time %v", a.Bench, a.ExcessTime)
		}
		if math.Abs(a.Energy-a.BaselineEnergy)/a.BaselineEnergy > 1e-6 {
			t.Fatalf("%s: static energy %v vs baseline %v", a.Bench, a.Energy, a.BaselineEnergy)
		}
	}
}

func TestOracleRM2NoViolationsAndSaves(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model3, nil)
	opt := DefaultOptions()
	opt.Oracle = true
	res, err := Run(db, mixedWorkload, mgr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("oracle RM2 violations = %d", res.Violations)
	}
	if res.EnergySavings < 0.03 {
		t.Fatalf("oracle RM2 savings = %.3f, want >= 3%% on a favourable mix", res.EnergySavings)
	}
}

func TestOracleRM3BeatsRM2(t *testing.T) {
	db := testDB(t)
	opt := DefaultOptions()
	opt.Oracle = true
	rm2, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model3, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	rm3, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordCoreDVFSCache, core.Model3, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rm3.EnergySavings <= rm2.EnergySavings {
		t.Fatalf("RM3 (%.3f) did not beat RM2 (%.3f)", rm3.EnergySavings, rm2.EnergySavings)
	}
}

func TestRealisticRM2BoundedViolations(t *testing.T) {
	// Realistic (sampled, stale, constant-MLP) models do cause QoS
	// violations — the paper reports up to 9% excess; our substrate shows
	// the same mechanism. What must hold is that the excess stays bounded.
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.ExcessTime > 0.25 {
			t.Fatalf("%s: excess time %.3f, model error implausibly large", a.Bench, a.ExcessTime)
		}
	}
}

func TestDVFSOnlyCannotSaveWithoutSlack(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeDVFSOnly, core.Model2, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySavings > 0.005 {
		t.Fatalf("DVFS-only saved %.3f without slack; the paper says it cannot", res.EnergySavings)
	}
}

func TestSlackIncreasesSavings(t *testing.T) {
	db := testDB(t)
	opt := DefaultOptions()
	opt.Oracle = true
	tight, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model3, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	slack := []float64{0.4, 0.4, 0.4, 0.4}
	relaxed, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model3, slack), opt)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.EnergySavings <= tight.EnergySavings {
		t.Fatalf("slack did not increase savings: %.3f vs %.3f",
			relaxed.EnergySavings, tight.EnergySavings)
	}
	// The relaxed run may be slower, but not beyond the allowed slack.
	if relaxed.Violations != 0 {
		t.Fatalf("relaxed run violated its relaxed QoS %d times", relaxed.Violations)
	}
}

func TestSlackRespectedPerApp(t *testing.T) {
	db := testDB(t)
	slack := []float64{0.4, 0, 0, 0}
	opt := DefaultOptions()
	opt.Oracle = true
	res, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model3, slack), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Apps {
		if a.AllowedSlack != slack[i] {
			t.Fatalf("app %d slack %v, want %v", i, a.AllowedSlack, slack[i])
		}
		if a.ExcessTime > a.AllowedSlack+0.01 {
			t.Fatalf("%s exceeded its slack: %.3f > %.3f", a.Bench, a.ExcessTime, a.AllowedSlack)
		}
	}
}

func TestRunRejectsWrongWorkloadSize(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeStatic, core.Model2, nil)
	if _, err := Run(db, []string{"mcf"}, mgr, DefaultOptions()); err == nil {
		t.Fatal("expected error for wrong workload size")
	}
}

func TestRunRejectsUnknownBench(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeStatic, core.Model2, nil)
	_, err := Run(db, []string{"mcf", "nosuch", "hmmer", "namd"}, mgr, DefaultOptions())
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestRunDeterministic(t *testing.T) {
	db := testDB(t)
	r1, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(db, mixedWorkload, newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergySavings != r2.EnergySavings || r1.Invocations != r2.Invocations {
		t.Fatal("simulation not deterministic")
	}
	for i := range r1.Apps {
		if r1.Apps[i].Time != r2.Apps[i].Time {
			t.Fatalf("app %d time differs across runs", i)
		}
	}
}

func TestInvocationCountMatchesIntervals(t *testing.T) {
	// The RMA must be invoked once per completed interval; the count is at
	// least the total first-round interval count of the workload.
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	minIntervals := 0
	for _, b := range mixedWorkload {
		id, ok := db.BenchIDOf(b)
		if !ok {
			t.Fatalf("unknown benchmark %s", b)
		}
		tr := db.PhaseTraceAt(id)
		if len(tr) > minIntervals {
			minIntervals = len(tr)
		}
	}
	if res.Invocations < minIntervals {
		t.Fatalf("invocations %d below longest app %d", res.Invocations, minIntervals)
	}
}

func TestBaselineRoundAdditive(t *testing.T) {
	db := testDB(t)
	secs, joules, err := BaselineRound(db, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr := db.Analysis("mcf").PhaseTrace
	pt, _ := db.Perf("mcf", tr[0], db.Sys.BaselineSetting())
	if secs < pt.Seconds || joules < pt.EPI()*trace.SliceInstructions {
		t.Fatal("baseline round smaller than its first interval")
	}
	if secs <= 0 || joules <= 0 {
		t.Fatal("degenerate baseline")
	}
}

func TestViolatedThreshold(t *testing.T) {
	a := AppResult{ExcessTime: 0.005}
	if a.Violated() {
		t.Fatal("sub-1% excess must not count as violation")
	}
	a.ExcessTime = 0.02
	if !a.Violated() {
		t.Fatal("2% excess must count")
	}
	a.AllowedSlack = 0.4
	a.ExcessTime = 0.35
	if a.Violated() {
		t.Fatal("excess within slack must not count")
	}
	a.ExcessTime = 0.45
	if !a.Violated() {
		t.Fatal("excess beyond slack must count")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeStatic, core.Model2, nil)
	opt := Options{MaxEvents: 3}
	if _, err := Run(db, mixedWorkload, mgr, opt); err == nil {
		t.Fatal("expected event-budget error")
	}
}

func TestEnergyConservation(t *testing.T) {
	// First-round energy must be positive and bounded by a plausible
	// power envelope: energy <= peakPower * time.
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordCoreDVFSCache, core.Model3, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.Energy <= 0 || a.Time <= 0 {
			t.Fatalf("%s: non-positive accounting", a.Bench)
		}
		if a.Energy > 50*a.Time {
			t.Fatalf("%s: implied power %v W implausible", a.Bench, a.Energy/a.Time)
		}
	}
}

func TestTimelineRecording(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	opt := DefaultOptions()
	opt.Timeline = true
	res, err := Run(db, mixedWorkload, mgr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline events recorded")
	}
	prev := 0.0
	for i, ev := range res.Timeline {
		if ev.TimeSec < prev {
			t.Fatalf("timeline not ordered at %d", i)
		}
		prev = ev.TimeSec
		if ev.Core < 0 || ev.Core >= len(mixedWorkload) {
			t.Fatalf("bad core id %d", ev.Core)
		}
		if ev.Setting.Ways < 1 || ev.Setting.Ways > db.Sys.LLC.Assoc {
			t.Fatalf("bad ways %d", ev.Setting.Ways)
		}
	}
	// Disabled by default.
	mgr2 := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	res2, err := Run(db, mixedWorkload, mgr2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Timeline) != 0 {
		t.Fatal("timeline recorded without the option")
	}
}

func TestMeanAllocationReporting(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeCoordDVFSCache, core.Model2, nil)
	res, err := Run(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var totalWays float64
	for _, a := range res.Apps {
		if a.MeanFreqGHz < 0.8 || a.MeanFreqGHz > 3.2 {
			t.Fatalf("%s: mean frequency %v outside the DVFS range", a.Bench, a.MeanFreqGHz)
		}
		if a.MeanWays < 1 || a.MeanWays > float64(db.Sys.LLC.Assoc) {
			t.Fatalf("%s: mean ways %v out of range", a.Bench, a.MeanWays)
		}
		totalWays += a.MeanWays
	}
	// Apps run different durations, so the sum of per-app means need not be
	// exactly the associativity, but it must be in its neighbourhood.
	if totalWays < 8 || totalWays > 2*float64(db.Sys.LLC.Assoc) {
		t.Fatalf("summed mean ways %v implausible", totalWays)
	}
}

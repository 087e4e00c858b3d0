package cluster

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/equilibrium"
	"qosrma/internal/sched"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
	"qosrma/internal/workload"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

// testDB builds a small 2-core database over a subset of the suite — big
// enough for heterogeneous placement, small enough to keep scenarios fast.
func testDB(t *testing.T) *simdb.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second database build in -short mode")
	}
	dbOnce.Do(func() {
		sys := arch.DefaultSystemConfig(2)
		dbInst, dbErr = simdb.Build(sys, trace.Suite()[:6], simdb.DefaultBuildOptions())
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbInst
}

// testSpec is a moderately loaded 2-machine scenario with a fixed seed.
func testSpec(db *simdb.DB, jobs int, meanSec float64) Spec {
	return Spec{
		Machines: 2,
		Scheme:   core.SchemeCoordDVFSCache,
		Model:    core.Model3,
		Slack:    0.2,
		Jobs: workload.PoissonArrivals(db.BenchNames(), workload.ArrivalOptions{
			Jobs: jobs, MeanInterarrivalSec: meanSec, Seed: 42,
		}),
	}
}

func TestClusterCompletesAllJobs(t *testing.T) {
	db := testDB(t)
	spec := testSpec(db, 12, 0.4)
	res, err := Run(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 12 {
		t.Fatalf("completed %d jobs, want 12", len(res.Jobs))
	}
	machineJobs := 0
	for _, m := range res.Machines {
		machineJobs += m.Jobs
		if m.Invocations <= 0 {
			t.Fatal("machine never invoked its RMA")
		}
	}
	if machineJobs != 12 {
		t.Fatalf("machines account for %d jobs", machineJobs)
	}
	for _, j := range res.Jobs {
		if j.WaitSec < 0 {
			t.Fatalf("job %d has negative wait %g", j.Job.ID, j.WaitSec)
		}
		if j.StartSec != j.Job.TimeSec+j.WaitSec {
			t.Fatalf("job %d start/wait inconsistent", j.Job.ID)
		}
		if j.FinishSec <= j.StartSec {
			t.Fatalf("job %d finished before it started", j.Job.ID)
		}
		if j.App.Time <= 0 || j.App.Energy <= 0 || j.App.BaselineEnergy <= 0 {
			t.Fatalf("job %d degenerate accounting: %+v", j.Job.ID, j.App)
		}
		if j.Machine < 0 || j.Machine >= spec.Machines {
			t.Fatalf("job %d on machine %d", j.Job.ID, j.Machine)
		}
		if j.FinishSec > res.MakespanSec {
			t.Fatal("makespan below a job's finish time")
		}
	}
	if res.Intervals <= 0 {
		t.Fatal("no intervals audited")
	}
}

// TestClusterDeterministic pins the acceptance criterion CI enforces
// (make determinism): a fixed-seed scenario reproduces identical results
// and identical CSV/JSON emitter bytes — compared by hash — across runs
// and across worker counts {1, 4, GOMAXPROCS}.
func TestClusterDeterministic(t *testing.T) {
	db := testDB(t)
	execute := func(workers int) (*Result, [32]byte, [32]byte, []byte) {
		spec := testSpec(db, 16, 0.3)
		spec.Workers = workers
		var csvBuf bytes.Buffer
		em, err := emit.New[Row]("csv", &csvBuf)
		if err != nil {
			t.Fatal(err)
		}
		spec.Emitter = em
		res, err := Run(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		var jsonBuf bytes.Buffer
		if err := emit.Write("json", &jsonBuf, res.Rows()); err != nil {
			t.Fatal(err)
		}
		return res, sha256.Sum256(csvBuf.Bytes()), sha256.Sum256(jsonBuf.Bytes()), csvBuf.Bytes()
	}
	r1, c1, j1, raw := execute(1)
	if len(raw) == 0 || bytes.Count(raw, []byte("\n")) != 17 { // header + 16 rows
		t.Fatalf("emitter produced %d lines", bytes.Count(raw, []byte("\n")))
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r2, c2, j2, _ := execute(workers)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("cluster result depends on the worker count (%d)", workers)
		}
		if c1 != c2 {
			t.Fatalf("streamed CSV hash differs at %d workers", workers)
		}
		if j1 != j2 {
			t.Fatalf("JSON output hash differs at %d workers", workers)
		}
	}
}

// TestClusterQueuesUnderOverload: a single machine fed arrivals much
// faster than it retires them must queue jobs and still complete them all,
// with strictly positive waits for the tail.
func TestClusterQueuesUnderOverload(t *testing.T) {
	db := testDB(t)
	spec := testSpec(db, 8, 0.01) // near-simultaneous arrivals
	spec.Machines = 1
	res, err := Run(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWaitSec <= 0 {
		t.Fatal("overloaded machine produced no queueing delay")
	}
	waited := 0
	for _, j := range res.Jobs {
		if j.WaitSec > 0 {
			waited++
		}
	}
	// Two cores absorb the first two arrivals; the other six must wait.
	if waited != 6 {
		t.Fatalf("%d jobs waited, want 6", waited)
	}
}

func TestClusterPlacementPolicies(t *testing.T) {
	db := testDB(t)
	for _, p := range []Placement{PlaceScored, PlaceFirstFit, PlaceEquilibrium} {
		spec := testSpec(db, 10, 0.5)
		spec.Placement = p
		res, err := Run(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Placement != p.String() {
			t.Fatalf("placement label %q", res.Placement)
		}
		if len(res.Jobs) != 10 {
			t.Fatalf("%s completed %d jobs", p, len(res.Jobs))
		}
	}
}

// TestEquilibriumPlacementDeterministic extends the byte-determinism wall
// to the equilibrium policy (make determinism): the per-arrival Nash solve
// explores its seeded starts in parallel, and the streamed rows must still
// hash identically across runs and worker counts.
func TestEquilibriumPlacementDeterministic(t *testing.T) {
	db := testDB(t)
	execute := func(workers int) (*Result, [32]byte) {
		spec := testSpec(db, 14, 0.3)
		spec.Placement = PlaceEquilibrium
		spec.Workers = workers
		var csvBuf bytes.Buffer
		em, err := emit.New[Row]("csv", &csvBuf)
		if err != nil {
			t.Fatal(err)
		}
		spec.Emitter = em
		res, err := Run(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, sha256.Sum256(csvBuf.Bytes())
	}
	r1, c1 := execute(1)
	if len(r1.Jobs) != 14 {
		t.Fatalf("completed %d jobs, want 14", len(r1.Jobs))
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		r2, c2 := execute(workers)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("equilibrium placement depends on the worker count (%d)", workers)
		}
		if c1 != c2 {
			t.Fatalf("streamed CSV hash differs at %d workers", workers)
		}
	}
}

// TestPlacementLoopAllocationFree pins the engine-held scratch: once the
// scorer caches are warm, scoring every candidate machine for an arrival
// (pickScored) performs zero heap allocations — the fix for the fresh
// ScoreBuf the old loop allocated per candidate machine per arrival. The
// warm-up scores every tenant tuple the pin queries, so the measured
// calls take the payoff memo's hit path, and their choice must match a
// cold scorer's.
func TestPlacementLoopAllocationFree(t *testing.T) {
	db := testDB(t)
	newEngine := func() *engine {
		e := &engine{db: db, scorer: sched.NewScorer(db)}
		for i := 0; i < 3; i++ {
			// One tenant, one free core per machine.
			m := &machine{id: i, ids: []simdb.BenchID{simdb.BenchID(i), noTenant}, jobOn: []int{-1, -1}, free: 1}
			e.machines = append(e.machines, m)
		}
		return e
	}
	e := newEngine()
	pick := func(e *engine, id simdb.BenchID) int {
		best, err := e.pickScored(id)
		if err != nil {
			t.Fatal(err)
		}
		return best
	}
	for id := 0; id < db.NumBenches(); id++ { // warm every tuple the pin will touch
		pick(e, simdb.BenchID(id))
	}
	for id := 0; id < db.NumBenches(); id++ {
		if got, want := pick(e, simdb.BenchID(id)), pick(newEngine(), simdb.BenchID(id)); got != want {
			t.Fatalf("memoized pick for bench %d chose machine %d, cold scorer %d", id, got, want)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.pickScored(4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm placement loop allocates %.1f objects per arrival, want 0", allocs)
	}
}

// TestEquilibriumFallbacksCounted: only equilibrium placement falls back,
// every fallback is one placed arrival, and the fixture's games exercise
// the counter.
func TestEquilibriumFallbacksCounted(t *testing.T) {
	db := testDB(t)
	for _, p := range []Placement{PlaceScored, PlaceFirstFit, PlaceEquilibrium} {
		spec := testSpec(db, 14, 0.3)
		spec.Placement = p
		res, err := Run(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		if p != PlaceEquilibrium {
			if res.EquilibriumFallbacks != 0 || res.NoEquilibrium != 0 {
				t.Fatalf("%s placement counted %d fallbacks (%d without equilibrium)",
					p, res.EquilibriumFallbacks, res.NoEquilibrium)
			}
			continue
		}
		if res.NoEquilibrium > res.EquilibriumFallbacks || res.EquilibriumFallbacks > len(res.Jobs) {
			t.Fatalf("fallback counters inconsistent: %d fallbacks, %d without equilibrium, %d jobs",
				res.EquilibriumFallbacks, res.NoEquilibrium, len(res.Jobs))
		}
		if res.EquilibriumFallbacks == 0 {
			t.Fatal("fixture never falls back: the counter is untested")
		}
	}
}

// TestPickEquilibriumReturnsSolverErrors: a solver failure other than
// equilibrium.ErrNoEquilibrium — here a tenant the scorer cannot score —
// reaches place's caller instead of turning into a scored fallback.
func TestPickEquilibriumReturnsSolverErrors(t *testing.T) {
	db := testDB(t)
	bad := simdb.BenchID(db.NumBenches()) // not in the database
	e := &engine{
		db:     db,
		spec:   Spec{Placement: PlaceEquilibrium},
		jobs:   []workload.Arrival{{ID: 0, Bench: db.BenchNames()[0]}},
		jobIDs: []simdb.BenchID{0},
		scorer: sched.NewScorer(db),
		machines: []*machine{
			{id: 0, ids: []simdb.BenchID{bad, noTenant}, jobOn: []int{-1, -1}, free: 1},
			{id: 1, ids: []simdb.BenchID{noTenant, noTenant}, jobOn: []int{-1, -1}, free: 2},
		},
	}
	err := e.place(0)
	if err == nil {
		t.Fatal("scorer failure swallowed into a fallback")
	}
	if errors.Is(err, equilibrium.ErrNoEquilibrium) {
		t.Fatalf("scorer failure reported as no equilibrium: %v", err)
	}
	if e.fallbacks != 0 || e.noEquilibrium != 0 {
		t.Fatalf("failed solve counted as a fallback (%d, %d)", e.fallbacks, e.noEquilibrium)
	}
}

func TestClusterTimeline(t *testing.T) {
	db := testDB(t)
	spec := testSpec(db, 6, 0.5)
	spec.Timeline = true
	res, err := Run(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, m := range res.Machines {
		prev := 0.0
		for _, ev := range m.Timeline {
			if ev.TimeSec < prev {
				t.Fatal("machine timeline not ordered")
			}
			prev = ev.TimeSec
			events++
		}
	}
	if events == 0 {
		t.Fatal("no timeline events under a coordinated scheme")
	}
}

func TestClusterSpecValidation(t *testing.T) {
	db := testDB(t)
	if _, err := Run(db, Spec{Machines: 0, Jobs: testSpec(db, 2, 1).Jobs}); err == nil {
		t.Fatal("zero machines accepted")
	}
	if _, err := Run(db, Spec{Machines: 1}); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := testSpec(db, 2, 1)
	bad.Jobs[1].Bench = "nosuch"
	if _, err := Run(db, bad); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	neg := testSpec(db, 2, 1)
	neg.Jobs[0].TimeSec = -1
	if _, err := Run(db, neg); err == nil {
		t.Fatal("negative arrival time accepted")
	}
}

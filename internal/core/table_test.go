package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

var (
	tableDBOnce sync.Once
	tableDBInst *simdb.DB
	tableDBErr  error
)

func tableDB(t *testing.T) *simdb.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second database build in -short mode")
	}
	tableDBOnce.Do(func() {
		tableDBInst, tableDBErr = simdb.Build(arch.DefaultSystemConfig(4), trace.Suite(), simdb.DefaultBuildOptions())
	})
	if tableDBErr != nil {
		t.Fatal(tableDBErr)
	}
	return tableDBInst
}

// tableApp is one core's occupant in the twin driver: a benchmark walking
// its phase trace.
type tableApp struct {
	id     simdb.BenchID
	phases []int
	slice  int
}

// twinRun drives a manager fed keyed statistics (rmasim.FillStats) and a
// twin fed the same statistics with the key cleared, through seeded
// Decide/DecideAll/Vacate/Occupy/Rebaseline sequences, and fails at the
// first step where their answers, applied settings or invocation counts
// differ.
type twinRun struct {
	t            *testing.T
	db           *simdb.DB
	oracle       bool
	keyed, plain *core.Manager
	apps         []*tableApp // nil while vacant
	setting      []arch.Setting
	rng          *rand.Rand
	step         int
}

func (r *twinRun) occupant(bench string) *tableApp {
	id, ok := r.db.BenchIDOf(bench)
	if !ok {
		r.t.Fatalf("no benchmark %s", bench)
	}
	return &tableApp{id: id, phases: r.db.PhaseTraceAt(id), slice: r.rng.Intn(len(r.db.PhaseTraceAt(id)))}
}

// stats fills the next interval's statistics for core c at its applied
// setting, exactly as the simulator does.
func (r *twinRun) stats(c int) *core.IntervalStats {
	a := r.apps[c]
	st := new(core.IntervalStats)
	rmasim.FillStats(r.db, a.id, a.phases[a.slice], r.db.Lattice.Index(r.setting[c]), c, r.oracle, st)
	if st.Key == 0 {
		r.t.Fatal("FillStats left the statistics unkeyed")
	}
	a.slice = (a.slice + 1) % len(a.phases)
	return st
}

func unkeyedCopy(st *core.IntervalStats) *core.IntervalStats {
	if st == nil {
		return nil
	}
	c := *st
	c.Key = 0
	return &c
}

func (r *twinRun) check(what string, got, want []arch.Setting, gotOK, wantOK bool) {
	r.t.Helper()
	if gotOK != wantOK || len(got) != len(want) {
		r.t.Fatalf("step %d %s: keyed ok=%v %v, unkeyed ok=%v %v", r.step, what, gotOK, got, wantOK, want)
	}
	for i := range got {
		if got[i] != want[i] {
			r.t.Fatalf("step %d %s core %d: keyed %v, unkeyed %v", r.step, what, i, got[i], want[i])
		}
	}
	if r.keyed.Invocations != r.plain.Invocations {
		r.t.Fatalf("step %d %s: keyed counted %d invocations, unkeyed %d", r.step, what, r.keyed.Invocations, r.plain.Invocations)
	}
	if gotOK {
		copy(r.setting, got)
	}
}

func (r *twinRun) pick(occupied bool) (int, bool) {
	var cands []int
	for c, a := range r.apps {
		if (a != nil) == occupied {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[r.rng.Intn(len(cands))], true
}

func (r *twinRun) run(steps int) {
	suite := trace.Suite()
	n := len(r.apps)
	for r.step = 0; r.step < steps; r.step++ {
		switch op := r.rng.Intn(20); {
		case op < 13:
			c, ok := r.pick(true)
			if !ok {
				continue
			}
			st := r.stats(c)
			got, gotOK := r.keyed.Decide(c, st)
			want, wantOK := r.plain.Decide(c, unkeyedCopy(st))
			r.check("Decide", got, want, gotOK, wantOK)
		case op < 16:
			st := make([]*core.IntervalStats, n)
			for c, a := range r.apps {
				if a != nil && r.rng.Intn(4) > 0 {
					st[c] = r.stats(c)
				}
			}
			plain := make([]*core.IntervalStats, n)
			for c, s := range st {
				plain[c] = unkeyedCopy(s)
			}
			got, gotOK := r.keyed.DecideAll(st)
			want, wantOK := r.plain.DecideAll(plain)
			r.check("DecideAll", got, want, gotOK, wantOK)
		case op < 18:
			c, ok := r.pick(true)
			if !ok || r.rng.Intn(n) == 0 {
				continue
			}
			r.keyed.Vacate(c)
			r.plain.Vacate(c)
			r.apps[c] = nil
			r.setting[c] = r.db.Sys.BaselineSetting()
		default:
			c, ok := r.pick(false)
			if !ok {
				continue
			}
			r.keyed.Occupy(c)
			r.plain.Occupy(c)
			r.apps[c] = r.occupant(suite[r.rng.Intn(len(suite))].Name)
			r.check("Rebaseline", r.keyed.Rebaseline(), r.plain.Rebaseline(), true, true)
		}
	}
}

// TestDecideTableMatchesUnkeyed is the bit-identity wall for the curve
// table and the allocation memo: under every scheme, both models and
// both statistics sources, a manager answering from keyed statistics
// decides exactly as one that rebuilds every curve and reruns every
// reduction. The mixes repeat benchmarks and slack values across cores,
// so table curves are shared between cores, and vacancies change both
// the way cap in the curve key and the idle markers in the memo key.
func TestDecideTableMatchesUnkeyed(t *testing.T) {
	db := tableDB(t)
	mixes := [][]string{
		{"mcf", "mcf", "soplex", "hmmer"},
		{"lbm", "milc", "lbm", "namd"},
	}
	slack := []float64{0.1, 0.1, 0, 0.1}
	seed := int64(0)
	for _, scheme := range []core.Scheme{
		core.SchemeStatic, core.SchemeDVFSOnly, core.SchemePartitionOnly,
		core.SchemeCoordDVFSCache, core.SchemeCoordCoreDVFSCache, core.SchemeUCPDVFS,
	} {
		for _, kind := range []core.ModelKind{core.Model2, core.Model3} {
			for _, oracle := range []bool{true, false} {
				for _, mix := range mixes {
					seed++
					cfg := core.Config{
						Sys:    db.Sys,
						Power:  power.DefaultParams(db.Sys),
						Scheme: scheme,
						Model:  kind,
						Slack:  slack,
					}
					r := &twinRun{
						t:       t,
						db:      db,
						oracle:  oracle,
						keyed:   core.NewManager(cfg),
						plain:   core.NewManager(cfg),
						setting: make([]arch.Setting, len(mix)),
						rng:     rand.New(rand.NewSource(seed)),
					}
					for c, bench := range mix {
						r.apps = append(r.apps, r.occupant(bench))
						r.setting[c] = db.Sys.BaselineSetting()
					}
					r.run(200)
					curves, allocs := r.keyed.MemoSizes()
					if scheme != core.SchemeStatic && curves == 0 {
						t.Fatalf("%v %v oracle=%v: keyed statistics built no table curve", scheme, kind, oracle)
					}
					coordinated := scheme == core.SchemePartitionOnly || scheme == core.SchemeCoordDVFSCache ||
						scheme == core.SchemeCoordCoreDVFSCache
					if coordinated && allocs == 0 {
						t.Fatalf("%v %v oracle=%v: keyed statistics memoized no allocation", scheme, kind, oracle)
					}
				}
			}
		}
	}
}

// Package sched implements the thesis' second future-work proposal
// (Chapter 4): use workload characteristics to guide the system scheduler
// so that applications are collocated where the coordinated resource
// manager can actually trade resources between them.
//
// The insight follows directly from the evaluation: the manager saves the
// most when cache-sensitive applications share a machine with insensitive
// donors, and almost nothing when a machine is homogeneous. The scheduler
// therefore wants to *mix* sensitivities per machine. This package scores a
// candidate collocation with the same machinery the manager itself uses —
// per-application energy curves reduced to an optimal static allocation —
// and searches the assignment space.
package sched

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

// aggregateStats builds phase-weight-averaged oracle statistics for one
// application — the scheduler's coarse, whole-program view of it.
func aggregateStats(db *simdb.DB, id simdb.BenchID, coreID int) *core.IntervalStats {
	bd := db.Benches[id]
	assoc := db.Sys.LLC.Assoc
	agg := &core.IntervalStats{
		Core:      coreID,
		Setting:   db.Sys.BaselineSetting(),
		Instr:     trace.SliceInstructions,
		ATDMisses: make([]float64, assoc+1),
	}
	agg.ATDLeading = make([][]float64, arch.NumCoreSizes)
	for c := range agg.ATDLeading {
		agg.ATDLeading[c] = make([]float64, assoc+1)
	}
	var ilp, branch, apki float64
	for p := 0; p < bd.Analysis.NumPhases; p++ {
		rec := bd.Phases[p]
		w := rec.Weight
		ilp += w * rec.IlpIPC
		branch += w * rec.BranchMPKI
		apki += w * rec.APKI
		for i := 0; i <= assoc; i++ {
			agg.ATDMisses[i] += w * rec.Misses[i]
			for c := range agg.ATDLeading {
				agg.ATDLeading[c][i] += w * rec.Leading[c][i]
			}
		}
	}
	agg.IlpIPC = ilp
	agg.BranchMisses = branch * trace.SliceInstructions / 1000
	agg.LLCAccesses = apki * trace.SliceInstructions / 1000
	base := db.Sys.BaselineSetting()
	agg.TotalMisses = agg.ATDMisses[base.Ways]
	agg.LeadingMisses = agg.ATDLeading[base.Size][base.Ways]
	// Cycles consistent with the aggregate at the baseline setting.
	pred := core.Predictor{Sys: &db.Sys, Power: db.Power, Kind: core.Model3}
	agg.Cycles = pred.Cycles(agg, base)
	return agg
}

const (
	// memoLimit bounds the entries of one scorer's payoff memo. A cluster
	// run reaches about ten thousand distinct tenant tuples, but a service
	// snapshot's scorer lives as long as the snapshot, so this bound, not
	// the traffic, caps the memo's memory (a few MB). A shard that fills
	// up is emptied and refilled.
	memoLimit = 1 << 16
	// memoShardBits splits the memo into 1<<memoShardBits lock stripes so
	// parallel best-response starts, which mostly hit, rarely touch the
	// same lock word.
	memoShardBits = 4
	memoShards    = 1 << memoShardBits
)

// Scorer scores machine workloads for online placement. It memoizes at
// two levels:
//
//   - per benchmark, the whole-program statistics and the energy curves
//     behind the collocation score (curves per tenant count, which sets
//     the way cap), in dense tables indexed by simdb.BenchID;
//   - per machine, the final score, keyed by the *ordered* tuple of the
//     tenants' BenchIDs, so a repeated payoff query — the bulk of the
//     equilibrium solver's work — is one map read.
//
// The payoff memo's key is ordered, not the sorted multiset: the
// way-allocation DP breaks ties by tenant position and the baseline EPI is
// a float sum in tenant order, so two orders of one multiset may differ in
// the last bit. A memo hit therefore returns exactly the bits a fresh
// computation of the same call would. Errors are never memoized.
//
// A Scorer is safe for concurrent use; cached curves are shared
// read-only. Cold statistics and curves build behind per-entry
// single-flight onces, so concurrent calls build distinct keys in
// parallel while each key is still built exactly once.
type Scorer struct {
	db    *simdb.DB
	pred  core.Predictor
	base  arch.Setting
	cores int
	assoc int
	idle  *core.Curve // the zero-cost stand-in for unoccupied cores

	agg    []aggEntry   // by BenchID
	curves []curveEntry // by BenchID*cores + tenants-1

	// keyBits is the width of one tenant slot in a memo key; zero when a
	// full machine's tuple does not fit 64 bits, which disables the memo.
	keyBits uint
	memo    [memoShards]memoShard
}

// aggEntry is the single-flight slot for one benchmark's whole-program
// statistics and its term of the baseline EPI sum.
type aggEntry struct {
	once    sync.Once
	st      *core.IntervalStats
	baseEPI float64
}

// curveEntry is the single-flight slot for one memoized energy curve.
type curveEntry struct {
	once sync.Once
	cv   *core.Curve
}

// memoShard is one lock-striped slice of the payoff memo.
type memoShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
	_  [32]byte // pads the shard to a cache line
}

// NewScorer builds a scorer over the database.
func NewScorer(db *simdb.DB) *Scorer {
	n := db.Sys.NumCores
	sc := &Scorer{
		db:     db,
		pred:   core.Predictor{Sys: &db.Sys, Power: db.Power, Kind: core.Model3},
		base:   db.Sys.BaselineSetting(),
		cores:  n,
		assoc:  db.Sys.LLC.Assoc,
		idle:   core.IdleCurve(db.Sys.LLC.Assoc, db.Sys.BaselineSetting()),
		agg:    make([]aggEntry, db.NumBenches()),
		curves: make([]curveEntry, db.NumBenches()*n),
	}
	// Slots hold ID+1 so that no slot is zero and tuples of different
	// lengths never share a key.
	if b := uint(bits.Len(uint(db.NumBenches()))); b*uint(n) <= 64 {
		sc.keyBits = b
	}
	for i := range sc.memo {
		sc.memo[i].m = make(map[uint64]float64)
	}
	return sc
}

// Cores returns the database's machine width — the tenant capacity a
// single Score call accepts.
func (sc *Scorer) Cores() int { return sc.cores }

// AppendIDs interns benchmark names, appending their BenchIDs to dst; it
// fails on the first name the database does not hold.
func (sc *Scorer) AppendIDs(dst []simdb.BenchID, names []string) ([]simdb.BenchID, error) {
	for _, name := range names {
		id, ok := sc.db.BenchIDOf(name)
		if !ok {
			return dst, fmt.Errorf("sched: unknown benchmark %s", name)
		}
		dst = append(dst, id)
	}
	return dst, nil
}

// Name returns the benchmark name of an interned ID.
func (sc *Scorer) Name(id simdb.BenchID) string { return sc.db.BenchName(id) }

// stats returns the memoized whole-program statistics of one benchmark.
func (sc *Scorer) stats(id simdb.BenchID) *aggEntry {
	e := &sc.agg[id]
	e.once.Do(func() {
		e.st = aggregateStats(sc.db, id, 0)
		e.baseEPI = sc.pred.EPI(e.st, sc.base)
	})
	return e
}

// curve returns the memoized energy curve of one benchmark on a machine
// of the given tenant count. One way is reserved per *present*
// co-runner, so the ways of the machine's unoccupied cores are genuinely
// available to the tenants — the same occupancy-aware cap the online
// manager applies.
func (sc *Scorer) curve(id simdb.BenchID, st *core.IntervalStats, tenants int) *core.Curve {
	e := &sc.curves[int(id)*sc.cores+tenants-1]
	e.once.Do(func() {
		e.cv = sc.pred.BuildCurve(st, core.LocalOptions{MaxWays: sc.assoc - (tenants - 1)})
	})
	return e.cv
}

// ScoreBuf is reusable scratch for ScoreInto and ScoreIDs: the interned
// tenant list, the per-call curve slice and the way-allocation DP
// scratch, owned by the caller so a serving shard (or placement loop)
// scoring thousands of candidate machines allocates once and is then
// allocation-free on warm caches. The zero value is ready to use; a
// ScoreBuf must not be shared between concurrent calls.
type ScoreBuf struct {
	ids    []simdb.BenchID
	curves []*core.Curve
	ways   core.WaysScratch
}

// Score predicts the energy savings the coordinated manager reaches on one
// machine running apps — between one application and a full machine. Each
// application's energy curve is reduced to the optimal static allocation
// and compared against the baseline allocation; unoccupied cores stand in
// with the zero-cost idle curve (core.IdleCurve), exactly as the online
// manager treats them. With a full machine the score equals PredictSavings.
func (sc *Scorer) Score(apps []string) (float64, error) {
	var buf ScoreBuf
	return sc.ScoreInto(apps, &buf)
}

// ScoreInto is Score with caller-owned scratch (see ScoreBuf); results are
// bit-identical to Score.
func (sc *Scorer) ScoreInto(apps []string, buf *ScoreBuf) (float64, error) {
	ids, err := sc.AppendIDs(buf.ids[:0], apps)
	buf.ids = ids
	if err != nil {
		return 0, err
	}
	return sc.ScoreIDs(ids, buf)
}

// ScoreIDs is ScoreInto over interned tenants, in tenant order. Repeated
// tuples are answered from the payoff memo with the bits the first call
// computed.
//
//qosrma:noalloc
func (sc *Scorer) ScoreIDs(ids []simdb.BenchID, buf *ScoreBuf) (float64, error) {
	if len(ids) == 0 || len(ids) > sc.cores {
		return 0, fmt.Errorf("sched: machine holds 1..%d apps, got %d", sc.cores, len(ids))
	}
	var key uint64
	for _, id := range ids {
		if id < 0 || int(id) >= len(sc.agg) {
			return 0, fmt.Errorf("sched: benchmark id %d outside 0..%d", id, len(sc.agg)-1)
		}
		key = key<<sc.keyBits | uint64(id+1)
	}
	if sc.keyBits == 0 {
		return sc.score(ids, buf), nil
	}
	sh := &sc.memo[key*0x9E3779B97F4A7C15>>(64-memoShardBits)] // Fibonacci hashing
	sh.mu.RLock()
	s, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return s, nil
	}
	s = sc.score(ids, buf)
	sh.mu.Lock()
	if len(sh.m) >= memoLimit/memoShards {
		clear(sh.m)
	}
	sh.m[key] = s
	sh.mu.Unlock()
	return s, nil
}

// score computes one machine's collocation score from the cached curves.
func (sc *Scorer) score(ids []simdb.BenchID, buf *ScoreBuf) float64 {
	n := sc.cores
	if cap(buf.curves) < n {
		buf.curves = make([]*core.Curve, n)
	}
	curves := buf.curves[:n]
	var baseEPI float64
	for i, id := range ids {
		a := sc.stats(id)
		curves[i] = sc.curve(id, a.st, len(ids))
		baseEPI += a.baseEPI
	}
	for i := len(ids); i < n; i++ {
		curves[i] = sc.idle
	}
	alloc, ok := core.AllocateWaysInto(curves, sc.assoc, &buf.ways)
	if !ok {
		return 0
	}
	chosen := core.TotalEPI(curves, alloc)
	if baseEPI <= 0 {
		return 0
	}
	return 1 - chosen/baseEPI
}

// PredictSavings scores one machine's workload: the energy savings the
// coordinated manager is predicted to reach with an optimal static
// allocation, relative to the baseline allocation. It is the one-shot,
// full-machine form of Scorer.Score.
func PredictSavings(db *simdb.DB, apps []string) (float64, error) {
	n := db.Sys.NumCores
	if len(apps) != n {
		return 0, fmt.Errorf("sched: machine needs %d apps, got %d", n, len(apps))
	}
	return NewScorer(db).Score(apps)
}

// Assignment is one collocation of applications onto machines.
type Assignment struct {
	Machines [][]string
	// Predicted is the mean predicted savings across machines.
	Predicted float64
}

// Collocate partitions apps (len == machines x coresPerMachine) onto
// identical machines so that the mean predicted savings is maximized. For
// two machines the space is searched exhaustively; for more, greedily by
// repeated exhaustive two-machine improvement (swap descent).
func Collocate(db *simdb.DB, apps []string, machines int) (*Assignment, error) {
	per := db.Sys.NumCores
	if len(apps) != machines*per {
		return nil, fmt.Errorf("sched: %d apps cannot fill %d machines of %d cores",
			len(apps), machines, per)
	}
	if machines == 1 {
		p, err := PredictSavings(db, apps)
		if err != nil {
			return nil, err
		}
		return &Assignment{Machines: [][]string{apps}, Predicted: p}, nil
	}

	// Start from the given order, then swap-descend on the positive
	// objective: try exchanging every cross-machine pair and keep
	// improvements until a fixed point. With two machines this converges
	// to the exhaustive optimum on all inputs we generate; one shared
	// Scorer makes each step a cached-curve reduction rather than a
	// from-scratch prediction.
	assign := make([][]string, machines)
	for m := range assign {
		assign[m] = append([]string(nil), apps[m*per:(m+1)*per]...)
	}
	sc := NewScorer(db)
	best, err := swapDescend(sc, assign, false)
	if err != nil {
		return nil, err
	}
	return &Assignment{Machines: assign, Predicted: best}, nil
}

// swapDescend runs the exhaustive cross-machine swap descent over assign
// in place, maximizing the mean per-machine score (or minimizing it when
// negate is set), and returns the converged mean. Each candidate swap
// rescores only the two touched machines; the mean is re-summed over the
// per-machine score table in machine order, so every accepted/rejected
// decision — and the converged result — is bit-identical to the full
// fleet rescore it replaces, at two Score calls per swap instead of one
// per machine.
func swapDescend(sc *Scorer, assign [][]string, negate bool) (float64, error) {
	machines := len(assign)
	var buf ScoreBuf
	scores := make([]float64, machines)
	for m, machine := range assign {
		s, err := sc.ScoreInto(machine, &buf)
		if err != nil {
			return 0, err
		}
		scores[m] = s
	}
	mean := func() float64 {
		var total float64
		for _, s := range scores {
			total += s
		}
		return total / float64(machines)
	}
	sign := 1.0
	if negate {
		sign = -1
	}
	best := mean()
	for improved := true; improved; {
		improved = false
		for a := 0; a < machines; a++ {
			for b := a + 1; b < machines; b++ {
				for i := range assign[a] {
					for j := range assign[b] {
						assign[a][i], assign[b][j] = assign[b][j], assign[a][i]
						oldA, oldB := scores[a], scores[b]
						sA, err := sc.ScoreInto(assign[a], &buf)
						if err != nil {
							return 0, err
						}
						sB, err := sc.ScoreInto(assign[b], &buf)
						if err != nil {
							return 0, err
						}
						scores[a], scores[b] = sA, sB
						if cand := mean(); sign*cand > sign*best+1e-12 {
							best = cand
							improved = true
						} else {
							assign[a][i], assign[b][j] = assign[b][j], assign[a][i]
							scores[a], scores[b] = oldA, oldB
						}
					}
				}
			}
		}
	}
	return best, nil
}

// WorstCollocation returns the assignment minimizing the predicted savings
// — the adversarial reference the experiment compares against. It starts
// from a sorted grouping (similar apps together, the pathological case for
// the coordinated manager) and then genuinely descends on the negated
// objective with the same swap machinery Collocate uses, so the returned
// assignment is a local minimum, not just the sorted heuristic.
func WorstCollocation(db *simdb.DB, apps []string, machines int) (*Assignment, error) {
	per := db.Sys.NumCores
	if len(apps) != machines*per {
		return nil, fmt.Errorf("sched: %d apps cannot fill %d machines of %d cores",
			len(apps), machines, per)
	}
	// Sort by individual cache utility so similar applications cluster.
	type scored struct {
		app  string
		util float64
	}
	var xs []scored
	for _, app := range apps {
		id, ok := db.BenchIDOf(app)
		if !ok {
			return nil, fmt.Errorf("sched: unknown benchmark %s", app)
		}
		st := aggregateStats(db, id, 0)
		lo := st.ATDMisses[2]
		hi := st.ATDMisses[len(st.ATDMisses)-1]
		xs = append(xs, scored{app: app, util: lo - hi})
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].util > xs[j].util })
	assign := make([][]string, machines)
	for i, x := range xs {
		m := i / per
		assign[m] = append(assign[m], x.app)
	}
	sc := NewScorer(db)
	worst, err := swapDescend(sc, assign, true)
	if err != nil {
		return nil, err
	}
	return &Assignment{Machines: assign, Predicted: worst}, nil
}

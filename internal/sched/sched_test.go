package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

func testDB(t *testing.T) *simdb.DB {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second database build in -short mode")
	}
	dbOnce.Do(func() {
		dbInst, dbErr = simdb.Build(arch.DefaultSystemConfig(4), trace.Suite(),
			simdb.DefaultBuildOptions())
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbInst
}

// eightApps is 2 MS + 2 CS + 4 CI applications: mixing them across two
// machines is clearly better than clustering.
var eightApps = []string{
	"mcf", "omnetpp", "perlbench", "xalancbmk",
	"gamess", "hmmer", "namd", "povray",
}

func TestPredictSavingsFavorsMixedMachine(t *testing.T) {
	db := testDB(t)
	mixed, err := PredictSavings(db, []string{"mcf", "omnetpp", "gamess", "hmmer"})
	if err != nil {
		t.Fatal(err)
	}
	homog, err := PredictSavings(db, []string{"gamess", "hmmer", "namd", "povray"})
	if err != nil {
		t.Fatal(err)
	}
	if mixed <= homog {
		t.Fatalf("mixed machine predicted %.3f, homogeneous %.3f", mixed, homog)
	}
	if mixed < 0.05 {
		t.Fatalf("mixed machine predicted only %.3f", mixed)
	}
}

func TestPredictSavingsSizeCheck(t *testing.T) {
	db := testDB(t)
	if _, err := PredictSavings(db, []string{"mcf"}); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := PredictSavings(db, []string{"mcf", "nosuch", "hmmer", "namd"}); err == nil {
		t.Fatal("expected unknown-benchmark error")
	}
}

func TestCollocateBeatsWorst(t *testing.T) {
	db := testDB(t)
	best, err := Collocate(db, eightApps, 2)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := WorstCollocation(db, eightApps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.Predicted <= worst.Predicted {
		t.Fatalf("guided collocation %.3f not above adversarial %.3f",
			best.Predicted, worst.Predicted)
	}
	// Structural validity: every app placed exactly once.
	seen := map[string]int{}
	for _, m := range best.Machines {
		if len(m) != 4 {
			t.Fatalf("machine with %d apps", len(m))
		}
		for _, a := range m {
			seen[a]++
		}
	}
	for _, a := range eightApps {
		if seen[a] != 1 {
			t.Fatalf("app %s placed %d times", a, seen[a])
		}
	}
}

func TestCollocateSingleMachine(t *testing.T) {
	db := testDB(t)
	a, err := Collocate(db, []string{"mcf", "omnetpp", "gamess", "hmmer"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Machines) != 1 || a.Predicted <= 0 {
		t.Fatalf("single machine assignment broken: %+v", a)
	}
}

func TestCollocateSizeValidation(t *testing.T) {
	db := testDB(t)
	if _, err := Collocate(db, eightApps, 3); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := WorstCollocation(db, eightApps, 3); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestWorstCollocationClustersSimilarApps(t *testing.T) {
	db := testDB(t)
	worst, err := WorstCollocation(db, eightApps, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The adversarial grouping puts the cache-hungry apps together: count
	// how many of the four MS/CS apps share machine 0 or 1 exclusively.
	sensitive := map[string]bool{"mcf": true, "omnetpp": true, "perlbench": true, "xalancbmk": true}
	perMachine := make([]int, 2)
	for m, machine := range worst.Machines {
		for _, a := range machine {
			if sensitive[a] {
				perMachine[m]++
			}
		}
	}
	if perMachine[0] != 4 && perMachine[1] != 4 {
		t.Fatalf("adversarial grouping did not cluster: %v", perMachine)
	}
}

// fullRescoreDescend is the reference swap descent the optimized
// swapDescend replaced: every candidate swap rescores the whole fleet.
// The test keeps it alive to pin the optimization's bit-identity.
func fullRescoreDescend(sc *Scorer, assign [][]string, negate bool) (float64, error) {
	machines := len(assign)
	mean := func() (float64, error) {
		var total float64
		for _, m := range assign {
			s, err := sc.Score(m)
			if err != nil {
				return 0, err
			}
			total += s
		}
		return total / float64(machines), nil
	}
	sign := 1.0
	if negate {
		sign = -1
	}
	best, err := mean()
	if err != nil {
		return 0, err
	}
	for improved := true; improved; {
		improved = false
		for a := 0; a < machines; a++ {
			for b := a + 1; b < machines; b++ {
				for i := range assign[a] {
					for j := range assign[b] {
						assign[a][i], assign[b][j] = assign[b][j], assign[a][i]
						cand, err := mean()
						if err != nil {
							return 0, err
						}
						if sign*cand > sign*best+1e-12 {
							best = cand
							improved = true
						} else {
							assign[a][i], assign[b][j] = assign[b][j], assign[a][i]
						}
					}
				}
			}
		}
	}
	return best, nil
}

// TestSwapDescendMatchesFullRescore pins the incremental two-machine
// rescore in swapDescend to the full fleet rescore it replaced: identical
// assignments and bit-identical converged scores, on both the positive
// (Collocate) and negated (WorstCollocation) objectives, at two and three
// machines.
func TestSwapDescendMatchesFullRescore(t *testing.T) {
	db := testDB(t)
	apps12 := db.BenchNames()[:12]
	cases := []struct {
		name     string
		apps     []string
		machines int
		negate   bool
	}{
		{"best-2", eightApps, 2, false},
		{"best-3", apps12, 3, false},
		{"worst-2", eightApps, 2, true},
		{"worst-3", apps12, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			per := db.Sys.NumCores
			split := func() [][]string {
				out := make([][]string, tc.machines)
				for m := range out {
					out[m] = append([]string(nil), tc.apps[m*per:(m+1)*per]...)
				}
				return out
			}
			ref := split()
			want, err := fullRescoreDescend(NewScorer(db), ref, tc.negate)
			if err != nil {
				t.Fatal(err)
			}
			got := split()
			have, err := swapDescend(NewScorer(db), got, tc.negate)
			if err != nil {
				t.Fatal(err)
			}
			if have != want {
				t.Fatalf("incremental descent converged to %v, full rescore to %v", have, want)
			}
			for m := range ref {
				for c := range ref[m] {
					if got[m][c] != ref[m][c] {
						t.Fatalf("machine %d differs: %v vs %v", m, got[m], ref[m])
					}
				}
			}
		})
	}
}

// TestWorstCollocationIsLocalMinimum pins the WorstCollocation bugfix:
// the adversarial assignment must actually descend (its score can only be
// at or below the sorted-grouping start it begins from) and must never
// beat the guided assignment.
func TestWorstCollocationIsLocalMinimum(t *testing.T) {
	db := testDB(t)
	worst, err := WorstCollocation(db, eightApps, 2)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Collocate(db, eightApps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Predicted > best.Predicted {
		t.Fatalf("adversarial %.6f above guided %.6f", worst.Predicted, best.Predicted)
	}
	// No single cross-machine swap may lower the adversarial score
	// further: the returned assignment is a genuine local minimum of the
	// negated objective, not just the sorted heuristic.
	sc := NewScorer(db)
	assign := [][]string{
		append([]string(nil), worst.Machines[0]...),
		append([]string(nil), worst.Machines[1]...),
	}
	mean := func() float64 {
		var total float64
		for _, m := range assign {
			s, err := sc.Score(m)
			if err != nil {
				t.Fatal(err)
			}
			total += s
		}
		return total / float64(len(assign))
	}
	base := mean()
	if base != worst.Predicted {
		t.Fatalf("recomputed adversarial score %v, reported %v", base, worst.Predicted)
	}
	for i := range assign[0] {
		for j := range assign[1] {
			assign[0][i], assign[1][j] = assign[1][j], assign[0][i]
			if cand := mean(); cand < base-1e-12 {
				t.Fatalf("swap (%d,%d) lowers the adversarial score: %v < %v", i, j, cand, base)
			}
			assign[0][i], assign[1][j] = assign[1][j], assign[0][i]
		}
	}
}

// TestScorerConcurrentColdCache hammers a cold scorer from many
// goroutines under -race: the single-flight entries must build each
// statistics/curve key exactly once without holding the scorer lock
// across builds, and every concurrent result must be bit-identical to a
// serial cold run.
func TestScorerConcurrentColdCache(t *testing.T) {
	db := testDB(t)
	names := db.BenchNames()
	var machines [][]string
	for i := 0; i+4 <= len(names); i += 2 {
		machines = append(machines, names[i:i+4])
	}
	// Partial machines exercise distinct way caps (distinct curve keys).
	for n := 1; n <= db.Sys.NumCores; n++ {
		machines = append(machines, names[:n])
	}
	ref := NewScorer(db)
	want := make([]float64, len(machines))
	for i, m := range machines {
		s, err := ref.Score(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	sc := NewScorer(db) // cold again: the hammer builds everything in parallel
	const workers = 8
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf ScoreBuf
			out := make([]float64, len(machines))
			for k := range machines {
				i := (k + w) % len(machines) // staggered orders collide on cold keys
				s, err := sc.ScoreInto(machines[i], &buf)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = s
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range machines {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d machine %d: concurrent %v, serial %v", w, i, got[w][i], want[i])
			}
		}
	}
}

func TestScorerMatchesPredictSavings(t *testing.T) {
	db := testDB(t)
	sc := NewScorer(db)
	machines := [][]string{
		{"mcf", "omnetpp", "gamess", "hmmer"},
		{"gamess", "hmmer", "namd", "povray"},
		{"mcf", "xalancbmk", "perlbench", "namd"},
	}
	for _, apps := range machines {
		want, err := PredictSavings(db, apps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Score(apps)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Score(%v) = %v, PredictSavings = %v", apps, got, want)
		}
		// Memoized second call must be bit-identical.
		again, err := sc.Score(apps)
		if err != nil || again != got {
			t.Fatalf("memoized Score differs: %v vs %v (%v)", again, got, err)
		}
	}
}

func TestScorerPartialMachine(t *testing.T) {
	db := testDB(t)
	sc := NewScorer(db)
	// A lone application always meets its QoS with the whole surplus at its
	// disposal: the score must be finite and non-negative.
	solo, err := sc.Score([]string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if solo < 0 || solo > 1 {
		t.Fatalf("solo score %v out of range", solo)
	}
	// Adding a compute-bound donor to a cache-hungry app must not destroy
	// the prediction (scores stay in range and defined for every load).
	for n := 2; n <= db.Sys.NumCores; n++ {
		s, err := sc.Score(eightApps[:n])
		if err != nil {
			t.Fatal(err)
		}
		if s < -1 || s > 1 {
			t.Fatalf("score %v for %d apps out of range", s, n)
		}
	}
	if _, err := sc.Score(nil); err == nil {
		t.Fatal("empty machine must be rejected")
	}
	if _, err := sc.Score(eightApps[:5]); err == nil {
		t.Fatal("overfull machine must be rejected")
	}
	if _, err := sc.Score([]string{"nosuch"}); err == nil {
		t.Fatal("unknown benchmark must be rejected")
	}
}

// orderedTuples lists every ordered tuple of 1..maxLen names, repetition
// allowed.
func orderedTuples(names []string, maxLen int) [][]string {
	var out [][]string
	var rec func(prefix []string)
	rec = func(prefix []string) {
		if len(prefix) > 0 {
			out = append(out, append([]string(nil), prefix...))
		}
		if len(prefix) == maxLen {
			return
		}
		for _, n := range names {
			rec(append(prefix, n))
		}
	}
	rec(nil)
	return out
}

// TestScoreMemoBitIdentical: for every ordered 1..4-tuple over six
// benchmarks, the memoized ScoreIDs and ScoreInto — cold, then memo hits,
// then with several goroutines filling and reading one memo at once —
// return exactly the bits of a fresh scorer's Score, and so does a scorer
// whose memo is disabled (a machine too wide for the packed key).
func TestScoreMemoBitIdentical(t *testing.T) {
	db := testDB(t)
	tuples := orderedTuples([]string{"mcf", "omnetpp", "perlbench", "gamess", "hmmer", "namd"}, db.Sys.NumCores)
	want := make([]uint64, len(tuples))
	for i, apps := range tuples {
		s, err := NewScorer(db).Score(apps)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = math.Float64bits(s)
	}
	// pass scores every tuple starting at offset, interned and by name,
	// and reports the first tuple whose bits differ from the fresh score.
	pass := func(sc *Scorer, offset int) error {
		var buf ScoreBuf
		var ids []simdb.BenchID
		for k := range tuples {
			i := (k + offset) % len(tuples)
			var err error
			if ids, err = sc.AppendIDs(ids[:0], tuples[i]); err != nil {
				return err
			}
			byID, err := sc.ScoreIDs(ids, &buf)
			if err != nil {
				return err
			}
			byName, err := sc.ScoreInto(tuples[i], &buf)
			if err != nil {
				return err
			}
			if math.Float64bits(byID) != want[i] || math.Float64bits(byName) != want[i] {
				return fmt.Errorf("%v: ScoreIDs %v, ScoreInto %v, fresh scorer %v",
					tuples[i], byID, byName, math.Float64frombits(want[i]))
			}
		}
		return nil
	}
	sc := NewScorer(db)
	for rep := 0; rep < 2; rep++ { // cold fill, then every call a memo hit
		if err := pass(sc, 0); err != nil {
			t.Fatal(err)
		}
	}
	off := NewScorer(db)
	off.keyBits = 0
	if err := pass(off, 0); err != nil {
		t.Fatalf("memo disabled: %v", err)
	}

	shared := NewScorer(db)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				if err := pass(shared, w*len(tuples)/workers); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScoreMemoBounded fills one scorer with more distinct tuples than the
// memo may hold: no shard outgrows its share of memoLimit, and every
// answer, before and after shards are emptied, matches an unmemoized
// scorer's bits.
func TestScoreMemoBounded(t *testing.T) {
	db := testDB(t)
	names := db.BenchNames()
	k := 2
	for k*k*k*k <= memoLimit {
		k++
	}
	if k > len(names) {
		t.Skipf("suite has %d benchmarks, need %d to overfill the memo", len(names), k)
	}
	sc, ref := NewScorer(db), NewScorer(db)
	ref.keyBits = 0
	var buf ScoreBuf
	ids := make([]simdb.BenchID, 4)
	tuple := func(i int) []simdb.BenchID {
		for j, d := 0, i; j < 4; j, d = j+1, d/k {
			ids[j] = simdb.BenchID(d % k)
		}
		return ids
	}
	n := k * k * k * k
	for i := 0; i < n; i++ {
		if _, err := sc.ScoreIDs(tuple(i), &buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 31 { // evicted and surviving entries alike
		got, err := sc.ScoreIDs(tuple(i), &buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ScoreIDs(ids, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: memoized %v, unmemoized %v", ids, got, want)
		}
	}
	for i := range sc.memo {
		if n := len(sc.memo[i].m); n > memoLimit/memoShards {
			t.Fatalf("memo shard %d holds %d entries, limit %d", i, n, memoLimit/memoShards)
		}
	}
}

// TestScoreIDsValidation: bad tuples are rejected and never memoized.
func TestScoreIDsValidation(t *testing.T) {
	db := testDB(t)
	sc := NewScorer(db)
	var buf ScoreBuf
	for _, ids := range [][]simdb.BenchID{
		nil,
		make([]simdb.BenchID, db.Sys.NumCores+1),
		{0, -1},
		{simdb.BenchID(db.NumBenches())},
	} {
		if _, err := sc.ScoreIDs(ids, &buf); err == nil {
			t.Fatalf("ScoreIDs(%v) accepted", ids)
		}
		if _, ok := sc.Key(ids); ok {
			t.Fatalf("Key(%v) keyed a rejected tuple", ids)
		}
	}
	for i := range sc.memo {
		if n := len(sc.memo[i].m); n != 0 {
			t.Fatalf("rejected tuples left %d memo entries in shard %d", n, i)
		}
	}
}

// TestKeyInjective: distinct ordered tuples of one to three tenants get
// distinct nonzero keys, and a scorer with the memo off keys nothing.
func TestKeyInjective(t *testing.T) {
	db := testDB(t)
	sc := NewScorer(db)
	n := simdb.BenchID(db.NumBenches())
	seen := map[uint64][]simdb.BenchID{}
	var rec func(ids []simdb.BenchID)
	rec = func(ids []simdb.BenchID) {
		if len(ids) > 0 {
			k, ok := sc.Key(ids)
			if !ok || k == 0 {
				t.Fatalf("Key(%v) = %d, %v", ids, k, ok)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("Key(%v) = Key(%v) = %d", ids, prev, k)
			}
			seen[k] = append([]simdb.BenchID(nil), ids...)
		}
		if len(ids) == 3 || len(ids) == sc.Cores() {
			return
		}
		for id := simdb.BenchID(0); id < n; id++ {
			rec(append(ids, id))
		}
	}
	rec(nil)
	off := NewScorer(db)
	off.keyBits = 0
	if _, ok := off.Key([]simdb.BenchID{0}); ok {
		t.Fatal("Key keyed a tuple with the memo off")
	}
	var buf ScoreBuf
	want, err := sc.ScoreIDs([]simdb.BenchID{0, 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := off.ScoreIDs([]simdb.BenchID{0, 1}, &buf); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("memo-off ScoreIDs = %v, %v; memoized %v", got, err, want)
	}
}

// TestScoreIDsAllocationFree pins ScoreIDs' memo-hit path, and Key, at
// zero heap allocations.
func TestScoreIDsAllocationFree(t *testing.T) {
	db := testDB(t)
	sc := NewScorer(db)
	ids, err := sc.AppendIDs(nil, eightApps[:4])
	if err != nil {
		t.Fatal(err)
	}
	var buf ScoreBuf
	if _, err := sc.ScoreIDs(ids, &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sc.ScoreIDs(ids, &buf); err != nil {
			t.Fatal(err)
		}
		if _, ok := sc.Key(ids); !ok {
			t.Fatal("Key rejected a valid tuple")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo-hit ScoreIDs allocates %.1f objects, want 0", allocs)
	}
}

package equilibrium

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/sched"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

// testDB builds a small 2-core database over a subset of the suite — the
// same shape the cluster engine's tests use, so placement games stay fast
// while still heterogeneous.
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

// feasibleProfiles enumerates every capacity-respecting assignment of n
// players onto machines of the given capacity.
func feasibleProfiles(n, machines, capacity int) [][]int {
	var out [][]int
	assign := make([]int, n)
	occ := make([]int, machines)
	var rec func(p int)
	rec = func(p int) {
		if p == n {
			out = append(out, append([]int(nil), assign...))
			return
		}
		for m := 0; m < machines; m++ {
			if occ[m] == capacity {
				continue
			}
			assign[p] = m
			occ[m]++
			rec(p + 1)
			occ[m]--
		}
	}
	rec(0)
	return out
}

// isNashManual checks the no-deviation property from first principles —
// straight Scorer calls, no package machinery — so the certificate tests
// do not assume verify itself is correct.
func isNashManual(t *testing.T, sc *sched.Scorer, players []string, assign []int, machines, capacity int, tol float64) bool {
	t.Helper()
	occ := make([]int, machines)
	for _, m := range assign {
		occ[m]++
	}
	tenants := func(m, mover, to int) []string {
		var apps []string
		for p, pm := range assign {
			if p == mover {
				pm = to
			}
			if pm == m {
				apps = append(apps, players[p])
			}
		}
		return apps
	}
	score := func(apps []string) float64 {
		s, err := sc.Score(apps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for p := range players {
		cur := score(tenants(assign[p], -1, 0))
		for m := 0; m < machines; m++ {
			if m == assign[p] || occ[m] >= capacity {
				continue
			}
			if score(tenants(m, p, m)) > cur+tol {
				return false
			}
		}
	}
	return true
}

// TestSolveCertificate: Solve's result must be certified, and the
// no-deviation property must hold under an exhaustive manual check that
// shares no code with verify.
func TestSolveCertificate(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()[:5]
	cfg := Config{Machines: 3, Capacity: 2, Seed: 11}
	eq, err := Solve(sc, players, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Certified {
		t.Fatal("Solve returned an uncertified equilibrium")
	}
	if !isNashManual(t, sc, players, eq.Assignment, cfg.Machines, cfg.Capacity, 1e-12) {
		t.Fatal("certified equilibrium admits a profitable deviation")
	}
	// Structural checks: every player placed once, payoffs match machines.
	occ := make([]int, cfg.Machines)
	for p, m := range eq.Assignment {
		if m < 0 || m >= cfg.Machines {
			t.Fatalf("player %d on machine %d", p, m)
		}
		occ[m]++
		s, err := sc.Score(eq.Machines[m])
		if err != nil {
			t.Fatal(err)
		}
		if eq.Payoffs[p] != s {
			t.Fatalf("player %d payoff %v, machine score %v", p, eq.Payoffs[p], s)
		}
	}
	for m, n := range occ {
		if n > cfg.Capacity {
			t.Fatalf("machine %d overfilled with %d tenants", m, n)
		}
		if n != len(eq.Machines[m]) {
			t.Fatalf("machine %d tenant list has %d entries for %d tenants", m, len(eq.Machines[m]), n)
		}
	}
	if eq.Starts != 4 || eq.Start < 0 || eq.Start >= eq.Starts {
		t.Fatalf("start bookkeeping broken: start %d of %d", eq.Start, eq.Starts)
	}
}

// TestVerifyMatchesExhaustiveCheck sweeps every feasible profile of a
// small game: verify must agree with the manual first-principles check on
// each one, and the game must contain both equilibria and non-equilibria
// (so the certificate genuinely discriminates).
func TestVerifyMatchesExhaustiveCheck(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()[:4]
	cfg := Config{Machines: 3, Capacity: 2, Seed: 1}
	nash, other := 0, 0
	for _, assign := range feasibleProfiles(len(players), cfg.Machines, cfg.Capacity) {
		want := isNashManual(t, sc, players, assign, cfg.Machines, cfg.Capacity, 1e-12)
		got, err := verifyNames(sc, players, assign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("verify(%v) = %v, manual check %v", assign, got, want)
		}
		if want {
			nash++
		} else {
			other++
		}
	}
	if nash == 0 {
		t.Fatal("game has no pure Nash equilibrium profile")
	}
	if other == 0 {
		t.Fatal("every profile is an equilibrium: the certificate discriminates nothing")
	}
}

// TestSolveDeterministic: fixed (players, Config) must reproduce the
// identical equilibrium bit for bit across worker counts and repeated
// runs, and different seeds must run without error.
func TestSolveDeterministic(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()
	base := Config{Machines: 4, Capacity: 2, Restarts: 6, Seed: 5}
	var want *Equilibrium
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 2; rep++ {
			cfg := base
			cfg.Workers = workers
			eq, err := Solve(sc, players, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = eq
				continue
			}
			if !reflect.DeepEqual(eq, want) {
				t.Fatalf("equilibrium depends on Workers=%d rep=%d:\n got %+v\nwant %+v",
					workers, rep, eq, want)
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := base
		cfg.Seed = seed
		if _, err := Solve(sc, players, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSolveWarmStart: a warm start that is already an equilibrium must be
// returned unchanged by start 0 (the dynamics find no move), and an
// infeasible warm start must be rejected.
func TestSolveWarmStart(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()[:5]
	cfg := Config{Machines: 3, Capacity: 2, Seed: 11}
	eq, err := Solve(sc, players, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.Initial = eq.Assignment
	warm.Restarts = 1
	again, err := Solve(sc, players, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Assignment, eq.Assignment) {
		t.Fatalf("warm start moved an equilibrium: %v -> %v", eq.Assignment, again.Assignment)
	}
	if again.Rounds != 1 {
		t.Fatalf("equilibrium warm start took %d rounds, want 1", again.Rounds)
	}

	bad := cfg
	bad.Initial = []int{0, 0, 0, 1, 1} // machine 0 over capacity
	if _, err := Solve(sc, players, bad); err == nil {
		t.Fatal("overfull warm start accepted")
	}
	short := cfg
	short.Initial = []int{0, 1}
	if _, err := Solve(sc, players, short); err == nil {
		t.Fatal("short warm start accepted")
	}
}

func TestSolveValidation(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()[:3]
	cases := []Config{
		{Machines: 0, Capacity: 2},                          // no machines
		{Machines: 2, Capacity: 0},                          // no capacity
		{Machines: 2, Capacity: 99},                         // beyond the scorer's width
		{Machines: 1, Capacity: 1},                          // players exceed fleet capacity
		{Machines: 2, Capacity: 2, Initial: []int{0, 5, 0}}, // machine out of range
		{Machines: maxMachines + 1, Capacity: 2},            // profile keys would alias
	}
	for i, cfg := range cases {
		if _, err := Solve(sc, players, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := Solve(sc, nil, Config{Machines: 2, Capacity: 2}); err == nil {
		t.Fatal("empty player list accepted")
	}
	if _, err := verifyNames(sc, players, []int{0}, Config{Machines: 2, Capacity: 2}); err == nil {
		t.Fatal("short assignment accepted by verify")
	}
	if _, err := verifyNames(sc, players, []int{1, 1, 1}, Config{Machines: 2, Capacity: 2}); err == nil {
		t.Fatal("overfull assignment accepted by verify")
	}
}

// refSolve is the solver as it stood before the scorer's payoff memo and
// the BenchID port: best-response dynamics, certificate and fleet
// objective over bench-name tuples, with every payoff computed by a fresh
// scorer, so nothing is memoized, not even curves. It is kept alive as
// the bit-identity reference for Solve; it returns nil where Solve must
// report ErrNoEquilibrium.
func refSolve(t *testing.T, db *simdb.DB, players []string, cfg Config) *Equilibrium {
	t.Helper()
	score := func(apps []string) float64 {
		s, err := sched.NewScorer(db).Score(apps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg, err := cfg.withDefaults(sched.NewScorer(db), len(players))
	if err != nil {
		t.Fatal(err)
	}
	n := len(players)
	var best *Equilibrium
	for start := 0; start < cfg.Restarts; start++ {
		rng := stats.NewRNG(stats.SeedFrom(cfg.Seed, fmt.Sprintf("equilibrium/start/%d", start)))
		assign, occ := make([]int, n), make([]int, cfg.Machines)
		if start == 0 && cfg.Initial != nil {
			copy(assign, cfg.Initial)
		} else {
			var slots []int
			for m := 0; m < cfg.Machines; m++ {
				for c := 0; c < cfg.Capacity; c++ {
					slots = append(slots, m)
				}
			}
			rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
			copy(assign, slots[:n])
		}
		for _, m := range assign {
			occ[m]++
		}
		order := rng.Perm(n)
		tenants := func(m, mover, to int) []string {
			var apps []string
			for p, pm := range assign {
				if p == mover {
					pm = to
				}
				if pm == m {
					apps = append(apps, players[p])
				}
			}
			return apps
		}
		// deviation returns p's most profitable move, or its own machine.
		deviation := func(p int) int {
			cur := assign[p]
			bestM, bestPay := cur, score(tenants(cur, -1, 0))
			for m := 0; m < cfg.Machines; m++ {
				if m == cur || occ[m] >= cfg.Capacity {
					continue
				}
				if pay := score(tenants(m, p, m)); pay > bestPay+cfg.Tol {
					bestM, bestPay = m, pay
				}
			}
			return bestM
		}
		seen := map[string]bool{profileKey(assign): true}
		rounds, converged := 0, false
		for rounds < cfg.MaxRounds {
			rounds++
			moved := false
			for _, p := range order {
				if m := deviation(p); m != assign[p] {
					occ[assign[p]]--
					occ[m]++
					assign[p] = m
					moved = true
				}
			}
			if !moved {
				converged = true
				break
			}
			key := profileKey(assign)
			if seen[key] {
				break
			}
			seen[key] = true
		}
		certified := converged
		for p := 0; certified && p < n; p++ {
			certified = deviation(p) == assign[p]
		}
		if !certified {
			continue
		}
		eq := &Equilibrium{Assignment: assign, Machines: make([][]string, cfg.Machines),
			Payoffs: make([]float64, n), Rounds: rounds, Start: start, Certified: true}
		var fleetSum float64
		occupied := 0
		for m := 0; m < cfg.Machines; m++ {
			eq.Machines[m] = tenants(m, -1, 0)
			if len(eq.Machines[m]) == 0 {
				continue
			}
			s := score(eq.Machines[m])
			fleetSum += s
			occupied++
			for p, pm := range assign {
				if pm == m {
					eq.Payoffs[p] = s
				}
			}
		}
		eq.Fleet = fleetSum / float64(occupied)
		if best == nil || eq.Fleet > best.Fleet {
			best = eq
		}
	}
	if best != nil {
		best.Starts = cfg.Restarts
	}
	return best
}

// testGame is one placement game: players and their solver config.
type testGame struct {
	players []string
	cfg     Config
}

// clusterGames builds placement games shaped as the cluster engine builds
// them on its test fixtures (two-core machines over the same six
// benchmarks): the running tenants warm-started where they run, the
// arrival on the lowest machine with a free core, seeded by the arrival's
// player index. The equilibrium tests' own fixtures and one-round games,
// one of which no start can finish, ride along.
func clusterGames(names []string) []testGame {
	var games []testGame
	for machines := 2; machines <= 4; machines++ {
		const capacity = 2
		for tenants := 0; tenants < machines*capacity; tenants++ {
			var players []string
			var initial []int
			occ := make([]int, machines)
			for q := 0; q < tenants; q++ {
				players = append(players, names[(5*q+machines)%len(names)])
				initial = append(initial, q%machines)
				occ[q%machines]++
			}
			players = append(players, names[(7*tenants+1)%len(names)])
			for m := range occ {
				if occ[m] < capacity {
					initial = append(initial, m)
					break
				}
			}
			games = append(games, testGame{players, Config{Machines: machines, Capacity: capacity,
				Seed: stats.SeedFrom(uint64(tenants), "cluster/equilibrium-place"), Initial: initial}})
		}
	}
	return append(games,
		testGame{names[:5], Config{Machines: 3, Capacity: 2, Seed: 11}},
		testGame{names, Config{Machines: 4, Capacity: 2, Restarts: 6, Seed: 5}},
		testGame{names, Config{Machines: 4, Capacity: 2, Restarts: 3, MaxRounds: 1, Seed: 1}},
		testGame{names, Config{Machines: 4, Capacity: 2, Restarts: 3, MaxRounds: 1, Seed: 3}},
	)
}

// TestSolveMatchesReference: on every fixture game, Solve over the
// memoized, interned scorer returns bit for bit the equilibrium of the
// unmemoized reference — assignment, payoffs, fleet objective, rounds and
// winning start — or reports ErrNoEquilibrium exactly where the reference
// finds none.
func TestSolveMatchesReference(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db) // one scorer across games, as in a cluster run
	found, missing := 0, 0
	for i, g := range clusterGames(db.BenchNames()) {
		want := refSolve(t, db, g.players, g.cfg)
		got, err := Solve(sc, g.players, g.cfg)
		if want == nil {
			if !errors.Is(err, ErrNoEquilibrium) {
				t.Fatalf("game %d: reference finds no equilibrium, Solve returned %+v, %v", i, got, err)
			}
			missing++
			continue
		}
		if err != nil {
			t.Fatalf("game %d: %v", i, err)
		}
		found++
		if !reflect.DeepEqual(got.Assignment, want.Assignment) || !reflect.DeepEqual(got.Machines, want.Machines) ||
			got.Rounds != want.Rounds || got.Start != want.Start || got.Starts != want.Starts ||
			math.Float64bits(got.Fleet) != math.Float64bits(want.Fleet) {
			t.Fatalf("game %d: Solve %+v, reference %+v", i, got, want)
		}
		for p := range want.Payoffs {
			if math.Float64bits(got.Payoffs[p]) != math.Float64bits(want.Payoffs[p]) {
				t.Fatalf("game %d player %d: payoff %v, reference %v", i, p, got.Payoffs[p], want.Payoffs[p])
			}
		}
	}
	if found == 0 || missing == 0 {
		t.Fatalf("fixtures cover %d solved and %d unsolvable games, want both", found, missing)
	}
}

// TestSolveErrors: a game that cannot converge within MaxRounds reports
// ErrNoEquilibrium; an unknown player is an input error, not a missing
// equilibrium.
func TestSolveErrors(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	players := db.BenchNames()[:4]
	cfg := Config{Machines: 3, Capacity: 2, Restarts: 1, MaxRounds: 1, Seed: 1}
	var initial []int
	for _, assign := range feasibleProfiles(len(players), cfg.Machines, cfg.Capacity) {
		ok, err := verifyNames(sc, players, assign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			initial = assign
			break
		}
	}
	if initial == nil {
		t.Fatal("every profile is an equilibrium")
	}
	// Some player deviates in the first round, so one round cannot reach
	// a fixed point.
	cfg.Initial = initial
	if _, err := Solve(sc, players, cfg); !errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("non-convergent game: got %v, want ErrNoEquilibrium", err)
	}

	unknown := append([]string{"nosuch"}, players[1:]...)
	if _, err := Solve(sc, unknown, Config{Machines: 3, Capacity: 2}); err == nil || errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("unknown player: Solve returned %v", err)
	}
	bad := []simdb.BenchID{0, simdb.BenchID(db.NumBenches())}
	if _, err := SolveIDs(sc, bad, Config{Machines: 2, Capacity: 2}); err == nil || errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("out-of-range player: SolveIDs returned %v", err)
	}
}

// tenantsWith is the tuple builder the solver used before it kept tenant
// lists: machine m's tenants in ascending player order, scanned from the
// whole assignment, with player p's strategy overridden to pm (p = -1
// takes the profile as is). It is the reference for the game's tuples.
func tenantsWith(players []simdb.BenchID, assign []int, m, p, pm int) []simdb.BenchID {
	var ids []simdb.BenchID
	for q, qm := range assign {
		if q == p {
			qm = pm
		}
		if qm == m {
			ids = append(ids, players[q])
		}
	}
	return ids
}

// checkGame fails unless the game's incremental state matches a rebuild
// from its assignment: each tenant list equals a fresh scan, each cached
// machine score and each feasible deviation's tuple and payoff equal, bit
// for bit, ScoreIDs on the tuple tenantsWith builds.
func checkGame(t *testing.T, g *game, what string) {
	t.Helper()
	var buf sched.ScoreBuf
	ref := func(ids []simdb.BenchID) float64 {
		s, err := g.sc.ScoreIDs(ids, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for m := 0; m < g.cfg.Machines; m++ {
		var want []int
		for p, pm := range g.assign {
			if pm == m {
				want = append(want, p)
			}
		}
		if got := g.list(m); !slices.Equal(got, want) {
			t.Fatalf("%s: machine %d lists %v, rebuild %v", what, m, got, want)
		}
		if g.known[m] && math.Float64bits(g.value[m]) != math.Float64bits(ref(tenantsWith(g.players, g.assign, m, -1, 0))) {
			t.Fatalf("%s: machine %d caches %v, ScoreIDs %v", what, m, g.value[m], ref(tenantsWith(g.players, g.assign, m, -1, 0)))
		}
	}
	for p := range g.players {
		for m := 0; m < g.cfg.Machines; m++ {
			if m == g.assign[p] || g.occ[m] >= g.cfg.Capacity {
				continue
			}
			want := tenantsWith(g.players, g.assign, m, p, m)
			if got := g.tuple(m, p); !slices.Equal(got, want) {
				t.Fatalf("%s: player %d to machine %d builds %v, reference %v", what, p, m, got, want)
			}
			pay, err := g.score(g.tuple(m, p))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(pay) != math.Float64bits(ref(want)) {
				t.Fatalf("%s: player %d to machine %d pays %v, ScoreIDs %v", what, p, m, pay, ref(want))
			}
		}
	}
}

// TestGameIncrementalState runs every start of the cluster fixtures'
// dynamics move by move on one reused game, as a solver worker does, and
// checks the incremental state against a from-scratch rebuild after every
// best response.
func TestGameIncrementalState(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	moves := 0
	for i, tg := range clusterGames(db.BenchNames()) {
		players, err := sc.AppendIDs(nil, tg.players)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := tg.cfg.withDefaults(sc, len(players))
		if err != nil {
			t.Fatal(err)
		}
		g := newGame(sc, players, cfg, new(payoffCache))
		for start := 0; start < cfg.Restarts; start++ {
			order, err := g.begin(start)
			if err != nil {
				t.Fatal(err)
			}
			checkGame(t, g, fmt.Sprintf("game %d start %d", i, start))
			for round := 0; round < cfg.MaxRounds; round++ {
				moved := false
				for _, p := range order {
					m, err := g.bestResponse(p)
					if err != nil {
						t.Fatal(err)
					}
					if m {
						moves++
						moved = true
						checkGame(t, g, fmt.Sprintf("game %d start %d round %d player %d", i, start, round, p))
					}
				}
				if !moved {
					break
				}
			}
		}
	}
	if moves == 0 {
		t.Fatal("no fixture start moved a player")
	}
}

// TestPayoffCacheBounded: the cache answers every key it holds with its
// score, stays below three-quarters full, and misses after it empties.
func TestPayoffCacheBounded(t *testing.T) {
	c := new(payoffCache)
	limit := len(c.slots) * 3 / 4
	for k := uint64(1); k <= uint64(limit); k++ {
		c.put(k*7919, float64(k))
	}
	for k := uint64(1); k <= uint64(limit); k++ {
		if s, ok := c.get(k * 7919); !ok || s != float64(k) {
			t.Fatalf("key %d: got %v, %v", k*7919, s, ok)
		}
	}
	c.put(1, -1) // the cache is full: this put empties it first
	if c.n != 1 {
		t.Fatalf("cache holds %d entries after emptying, want 1", c.n)
	}
	if _, ok := c.get(7919); ok {
		t.Fatal("an emptied cache still answers an old key")
	}
	if s, ok := c.get(1); !ok || s != -1 {
		t.Fatalf("key 1: got %v, %v", s, ok)
	}
}

// TestBestResponseAllocationFree pins a warm best-response round on the
// game solveStart runs (bestResponse, current, tuple, score, the payoff
// cache's get and put, move) at zero heap allocations: at a fixed point
// every payoff query is a cache hit on scratch the game already holds.
func TestBestResponseAllocationFree(t *testing.T) {
	db := testDB(t)
	sc := sched.NewScorer(db)
	names := db.BenchNames()
	players, err := sc.AppendIDs(nil, names)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{Machines: 4, Capacity: 2}.withDefaults(sc, len(players))
	if err != nil {
		t.Fatal(err)
	}
	g := newGame(sc, players, cfg, new(payoffCache))
	assign := make([]int, len(players))
	for p := range assign {
		assign[p] = p % cfg.Machines
	}
	if err := g.place(assign); err != nil {
		t.Fatal(err)
	}
	round := func() bool {
		moved := false
		for p := range players {
			m, err := g.bestResponse(p)
			if err != nil {
				t.Fatal(err)
			}
			moved = moved || m
		}
		return moved
	}
	for r := 0; round(); r++ {
		if r == cfg.MaxRounds {
			t.Fatal("dynamics did not settle; pick another fixture")
		}
	}
	p := 0
	from := g.assign[p]
	to := (from + 1) % cfg.Machines
	for g.occ[to] == cfg.Capacity {
		to = (to + 1) % cfg.Machines
	}
	allocs := testing.AllocsPerRun(20, func() {
		if round() {
			t.Fatal("a player moved at a fixed point")
		}
		if _, err := g.current(0); err != nil {
			t.Fatal(err)
		}
		g.cache.put(1, 0) // a key no tuple has: slots hold ID+1
		if _, ok := g.cache.get(1); !ok {
			t.Fatal("payoff cache lost a key")
		}
		// A move and its undo, outside the dynamics.
		pay, err := g.score(g.tuple(to, p))
		if err != nil {
			t.Fatal(err)
		}
		g.move(p, to, pay)
		back, err := g.score(g.tuple(from, p))
		if err != nil {
			t.Fatal(err)
		}
		g.move(p, from, back)
	})
	if allocs != 0 {
		t.Fatalf("warm best-response round allocates %.1f objects, want 0", allocs)
	}
}

// verifyNames runs the certificate over named players with a defaulted
// config, as Solve does after interning.
func verifyNames(sc *sched.Scorer, players []string, assign []int, cfg Config) (bool, error) {
	cfg, err := cfg.withDefaults(sc, len(players))
	if err != nil {
		return false, err
	}
	ids, err := sc.AppendIDs(nil, players)
	if err != nil {
		return false, err
	}
	return verify(sc, ids, assign, cfg)
}

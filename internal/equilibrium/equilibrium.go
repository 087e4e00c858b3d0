// Package equilibrium computes pure Nash equilibria of the collocation
// game the scorer (internal/sched) defines, treating jobs as players
// whose strategies are machine choices — the integer-programming-games
// view of placement ("Integer Programming Games: A Gentle Computational
// Overview"; "The ZERO Regrets Algorithm", PAPERS.md).
//
// The game: N players (jobs, identified by benchmark) choose among M
// identical machines of capacity C. A player's payoff is its machine's
// collocation score — the energy savings the coordinated resource manager
// is predicted to reach on that machine's tenant set, way-allocation
// settings included, with sched.Scorer as the best-response oracle. A
// strategy profile is a pure Nash equilibrium when no player can raise
// its own machine's score by unilaterally moving to a machine with a free
// core.
//
// Solve runs deterministic best-response dynamics: players best-respond
// in a seeded round-robin order until a full round passes without a move
// (the fixed point), with profile-history cycle detection aborting
// non-convergent starts. Every fixed point is then re-verified from
// scratch by the no-improvement certificate (verify) — the fixed point
// IS a pure NE, checked exhaustively, not assumed from the dynamics'
// bookkeeping. A ZERO-regrets-style master loop explores K seeded starts
// and returns the certified equilibrium with the best fleet objective
// (mean score over occupied machines), i.e. it optimizes fleet energy
// over the sampled equilibrium set. Results are bit-deterministic: fixed
// (players, Config) reproduce the same equilibrium regardless of Workers.
package equilibrium

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qosrma/internal/sched"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
)

// ErrNoEquilibrium reports that no start of a solve reached a certified
// pure Nash equilibrium: every start cycled, exceeded MaxRounds or failed
// the certificate. It is the one Solve error a caller may answer with a
// fallback policy; any other error is a fault in the inputs or the oracle.
var ErrNoEquilibrium = errors.New("equilibrium: no pure Nash equilibrium found")

// Config shapes one equilibrium computation.
type Config struct {
	// Machines is the number of machines (strategies before capacity).
	Machines int
	// Capacity is each machine's core count; at most Capacity players can
	// share a machine, and Capacity must not exceed the scorer's width.
	Capacity int
	// Restarts is the number of seeded starts the master loop explores
	// (default 4). The best certified equilibrium across starts wins.
	Restarts int
	// MaxRounds bounds the best-response rounds of one start before it is
	// abandoned as non-convergent (default 64; cycle detection usually
	// fires much earlier).
	MaxRounds int
	// Seed drives every randomized choice (start assignments, player
	// orders); fixed seed, fixed equilibrium.
	Seed uint64
	// Workers bounds the parallel exploration of starts (default
	// GOMAXPROCS). The result is bit-identical for every value.
	Workers int
	// Initial, when non-nil, warm-starts the first start from this
	// player → machine assignment (must be feasible); remaining starts
	// use seeded assignments. The cluster engine passes the fleet's
	// current physical assignment here.
	Initial []int
}

// tol is the payoff-improvement tolerance below which a deviation is not
// considered profitable — the same epsilon the swap descent uses, keeping
// fixed points stable under float noise.
const tol = 1e-12

// Equilibrium is one certified pure Nash equilibrium of the placement
// game.
type Equilibrium struct {
	// Assignment maps each player index to its machine.
	Assignment []int
	// Machines lists each machine's tenants in ascending player order
	// (empty machines keep empty slices).
	Machines [][]string
	// Payoffs is each player's payoff: its machine's collocation score.
	Payoffs []float64
	// Fleet is the master-loop objective: the mean collocation score over
	// occupied machines.
	Fleet float64
	// Rounds is the number of best-response rounds the winning start
	// needed to reach its fixed point.
	Rounds int
	// Start is the index of the seeded start that produced the winner.
	Start int
	// Starts is the number of starts explored.
	Starts int
	// Certified reports that verify confirmed the no-improvement
	// certificate. Solve only returns certified equilibria.
	Certified bool
}

// withDefaults validates cfg against the oracle and the player count and
// fills defaults.
func (cfg Config) withDefaults(sc *sched.Scorer, players int) (Config, error) {
	if cfg.Machines < 1 || cfg.Machines > maxMachines {
		return cfg, fmt.Errorf("equilibrium: machines %d outside 1..%d", cfg.Machines, maxMachines)
	}
	if cfg.Capacity < 1 || cfg.Capacity > sc.Cores() {
		return cfg, fmt.Errorf("equilibrium: capacity %d outside 1..%d", cfg.Capacity, sc.Cores())
	}
	if players == 0 {
		return cfg, fmt.Errorf("equilibrium: no players")
	}
	if players > cfg.Machines*cfg.Capacity {
		return cfg, fmt.Errorf("equilibrium: %d players exceed fleet capacity %d",
			players, cfg.Machines*cfg.Capacity)
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 4
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Initial != nil {
		if len(cfg.Initial) != players {
			return cfg, fmt.Errorf("equilibrium: initial assignment has %d entries for %d players",
				len(cfg.Initial), players)
		}
		occ := make([]int, cfg.Machines)
		for p, m := range cfg.Initial {
			if m < 0 || m >= cfg.Machines {
				return cfg, fmt.Errorf("equilibrium: player %d starts on machine %d of %d", p, m, cfg.Machines)
			}
			occ[m]++
			if occ[m] > cfg.Capacity {
				return cfg, fmt.Errorf("equilibrium: initial assignment overfills machine %d", m)
			}
		}
	}
	return cfg, nil
}

const (
	// maxMachines is the widest fleet a solve accepts: profileKey spends
	// two bytes per player, so wider fleets would alias distinct profiles
	// and abandon starts on false cycles.
	maxMachines = 1 << 16
	// payoffCacheBits sizes a worker's payoff cache at 1<<payoffCacheBits
	// slots (32 KB). A start of an 8-machine cluster game queries a few
	// hundred distinct tuples; the cache is emptied when three-quarters
	// full, so wider fleets stay correct and merely miss more.
	payoffCacheBits = 11
)

// payoffCache is a worker's unlocked cache in front of the scorer's shared
// payoff memo, keyed by sched.Scorer.Key and emptied at every start: open
// addressing with linear probing. Key zero marks an empty slot; Key never
// returns it. A cached score is the bits ScoreIDs returned for the same
// tuple, so a hit answers exactly as the memo would, without its lock.
type payoffCache struct {
	slots [1 << payoffCacheBits]payoffSlot
	n     int
}

type payoffSlot struct {
	key   uint64
	score float64
}

// cachePool recycles payoff caches across solves.
var cachePool = sync.Pool{New: func() any { return new(payoffCache) }}

func (c *payoffCache) reset() {
	clear(c.slots[:])
	c.n = 0
}

// get returns the cached score of key.
//
//qosrma:noalloc
func (c *payoffCache) get(key uint64) (float64, bool) {
	const mask = uint64(len(c.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> (64 - payoffCacheBits); ; i = (i + 1) & mask {
		switch s := &c.slots[i]; s.key {
		case key:
			return s.score, true
		case 0:
			return 0, false
		}
	}
}

// put caches the score of a key get just missed, first emptying the cache
// when it is three-quarters full.
//
//qosrma:noalloc
func (c *payoffCache) put(key uint64, score float64) {
	const mask = uint64(len(c.slots) - 1)
	if c.n >= len(c.slots)*3/4 {
		c.reset()
	}
	i := key * 0x9E3779B97F4A7C15 >> (64 - payoffCacheBits)
	for c.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = payoffSlot{key, score}
	c.n++
}

// game is the dynamics state of one profile. Each machine's tenants are
// kept as player indices in ascending order and updated per move, and each
// machine's current score is cached until a move touches the machine, so
// a best response costs one tuple per candidate machine rather than a
// scan of every player.
type game struct {
	sc      *sched.Scorer
	players []simdb.BenchID
	cfg     Config

	assign  []int
	occ     []int
	tenants []int // machine m's tenants at [m*Capacity, m*Capacity+occ[m])
	value   []float64
	known   []bool          // value[m] holds machine m's current score
	cache   *payoffCache    // nil: every query goes to the scorer
	ids     []simdb.BenchID // tenant-tuple scratch, rebuilt per payoff query
	buf     sched.ScoreBuf
}

// newGame allocates the state and scratch of a game over players on cfg's
// fleet; cache, when non-nil, fronts the scorer's memo. One game serves
// every start a solver worker runs.
func newGame(sc *sched.Scorer, players []simdb.BenchID, cfg Config, cache *payoffCache) *game {
	return &game{sc: sc, players: players, cfg: cfg, cache: cache,
		assign:  make([]int, len(players)),
		occ:     make([]int, cfg.Machines),
		tenants: make([]int, cfg.Machines*cfg.Capacity),
		value:   make([]float64, cfg.Machines),
		known:   make([]bool, cfg.Machines),
		ids:     make([]simdb.BenchID, 0, cfg.Capacity),
	}
}

// place sets the profile to a copy of assign and rebuilds every tenant
// list from it. It fails on a machine out of range or over capacity.
func (g *game) place(assign []int) error {
	if len(assign) != len(g.players) {
		return fmt.Errorf("equilibrium: assignment has %d entries for %d players",
			len(assign), len(g.players))
	}
	copy(g.assign, assign)
	clear(g.occ)
	clear(g.known)
	for p, m := range assign {
		if m < 0 || m >= g.cfg.Machines {
			return fmt.Errorf("equilibrium: machine %d out of range", m)
		}
		if g.occ[m] == g.cfg.Capacity {
			return fmt.Errorf("equilibrium: machine %d holds more than %d players", m, g.cfg.Capacity)
		}
		g.tenants[m*g.cfg.Capacity+g.occ[m]] = p
		g.occ[m]++
	}
	if g.cache != nil {
		g.cache.reset()
	}
	return nil
}

// list returns machine m's tenants in ascending player order.
func (g *game) list(m int) []int {
	return g.tenants[m*g.cfg.Capacity : m*g.cfg.Capacity+g.occ[m]]
}

// tuple builds machine m's tenant tuple with player p inserted at its
// ordered position (pass p = -1 for the machine as it is). The
// ascending-index order is the canonical tenant order everywhere in this
// package, so a payoff evaluated for a deviation is bit-identical to the
// machine's score after actually moving — and is the same memo entry of
// the scorer.
//
//qosrma:noalloc
func (g *game) tuple(m, p int) []simdb.BenchID {
	g.ids = g.ids[:0]
	for _, q := range g.list(m) {
		if p >= 0 && p < q {
			g.ids = append(g.ids, g.players[p])
			p = -1
		}
		g.ids = append(g.ids, g.players[q])
	}
	if p >= 0 {
		g.ids = append(g.ids, g.players[p])
	}
	return g.ids
}

// score returns the scorer's score of a tenant tuple, answering repeated
// tuples from the game's payoff cache. Tuples the scorer does not key, and
// errors, are never cached.
//
//qosrma:noalloc
func (g *game) score(ids []simdb.BenchID) (float64, error) {
	key, ok := g.sc.Key(ids)
	if !ok || g.cache == nil {
		return g.sc.ScoreIDs(ids, &g.buf)
	}
	if s, hit := g.cache.get(key); hit {
		return s, nil
	}
	s, err := g.sc.ScoreIDs(ids, &g.buf)
	if err != nil {
		return 0, err
	}
	g.cache.put(key, s)
	return s, nil
}

// current returns machine m's score under the current profile.
//
//qosrma:noalloc
func (g *game) current(m int) (float64, error) {
	if g.known[m] {
		return g.value[m], nil
	}
	s, err := g.score(g.tuple(m, -1))
	if err != nil {
		return 0, err
	}
	g.value[m], g.known[m] = s, true
	return s, nil
}

// bestResponse moves player p to its best feasible machine; it reports
// whether p moved. Deviations are profitable only beyond tol, and ties
// keep the lowest machine index (the current machine wins all ties), so
// the dynamics are deterministic.
//
//qosrma:noalloc
func (g *game) bestResponse(p int) (bool, error) {
	cur := g.assign[p]
	curPay, err := g.current(cur)
	if err != nil {
		return false, err
	}
	bestM, bestPay := cur, curPay
	for m := 0; m < g.cfg.Machines; m++ {
		if m == cur || g.occ[m] >= g.cfg.Capacity {
			continue
		}
		pay, err := g.score(g.tuple(m, p))
		if err != nil {
			return false, err
		}
		if pay > bestPay+tol {
			bestM, bestPay = m, pay
		}
	}
	if bestM == cur {
		return false, nil
	}
	g.move(p, bestM, bestPay)
	return true, nil
}

// move moves player p to machine to, whose score with p is pay, in
// O(Capacity): p leaves its old list and is inserted at its ordered
// position in the new one. Only the two touched machines' scores change.
//
//qosrma:noalloc
func (g *game) move(p, to int, pay float64) {
	from := g.assign[p]
	old := g.list(from)
	i := 0
	for old[i] != p {
		i++
	}
	copy(old[i:], old[i+1:])
	g.occ[from]--
	g.known[from] = false

	g.occ[to]++
	dst := g.list(to)
	j := len(dst) - 1
	for ; j > 0 && dst[j-1] > p; j-- {
		dst[j] = dst[j-1]
	}
	dst[j] = p
	g.assign[p] = to
	g.value[to], g.known[to] = pay, true
}

// profileKey encodes the assignment for exact cycle detection: two bytes
// per player, exact for the maxMachines fleets withDefaults admits.
func profileKey(assign []int) string {
	b := make([]byte, 2*len(assign))
	for i, m := range assign {
		b[2*i] = byte(m)
		b[2*i+1] = byte(m >> 8)
	}
	return string(b)
}

// begin places start's initial profile — the caller's warm start for
// start 0, otherwise a seeded feasible assignment (shuffled machine
// slots) — and returns the start's seeded player order.
func (g *game) begin(start int) ([]int, error) {
	cfg := g.cfg
	rng := stats.NewRNG(stats.SeedFrom(cfg.Seed, fmt.Sprintf("equilibrium/start/%d", start)))
	initial := cfg.Initial
	if start != 0 || initial == nil {
		slots := make([]int, 0, cfg.Machines*cfg.Capacity)
		for m := 0; m < cfg.Machines; m++ {
			for c := 0; c < cfg.Capacity; c++ {
				slots = append(slots, m)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		initial = slots[:len(g.players)]
	}
	if err := g.place(initial); err != nil {
		return nil, err
	}
	return rng.Perm(len(g.players)), nil
}

// solveStart runs one seeded start to a certified equilibrium, or reports
// (nil, nil) when the start cycles, exceeds MaxRounds, or fails the
// certificate.
func (g *game) solveStart(start int) (*Equilibrium, error) {
	cfg := g.cfg
	order, err := g.begin(start)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{profileKey(g.assign): true}
	rounds := 0
	for {
		if rounds++; rounds > cfg.MaxRounds {
			return nil, nil // non-convergent start
		}
		moved := false
		for _, p := range order {
			m, err := g.bestResponse(p)
			if err != nil {
				return nil, err
			}
			moved = moved || m
		}
		if !moved {
			break // fixed point: a full round found no profitable deviation
		}
		key := profileKey(g.assign)
		if seen[key] {
			return nil, nil // cycle: abandon, the master loop restarts elsewhere
		}
		seen[key] = true
	}

	ok, err := verify(g.sc, g.players, g.assign, cfg)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	n := len(g.players)
	eq := &Equilibrium{
		Assignment: append([]int(nil), g.assign...),
		Machines:   tenantLists(g.sc, g.players, g.assign, cfg.Machines),
		Payoffs:    make([]float64, n),
		Rounds:     rounds,
		Start:      start,
		Certified:  true,
	}
	var fleetSum float64
	occupied := 0
	for m := 0; m < cfg.Machines; m++ {
		if g.occ[m] == 0 {
			continue
		}
		s, err := g.current(m)
		if err != nil {
			return nil, err
		}
		fleetSum += s
		occupied++
		for _, p := range g.list(m) {
			eq.Payoffs[p] = s
		}
	}
	eq.Fleet = fleetSum / float64(occupied)
	return eq, nil
}

// tenantLists derives per-machine tenant lists in ascending player order.
func tenantLists(sc *sched.Scorer, players []simdb.BenchID, assign []int, machines int) [][]string {
	out := make([][]string, machines)
	for p, m := range assign {
		out[m] = append(out[m], sc.Name(players[p]))
	}
	return out
}

// verify checks the no-improvement certificate from scratch: for every
// player and every feasible alternative machine, the unilateral deviation
// payoff must not beat the player's current payoff by more than tol. It
// rebuilds its own tenant lists from assign, queries the scorer directly
// and shares no dynamics state with Solve, so a true result is an
// independent proof that assign is a pure Nash equilibrium of the
// scorer's game. It does share the scorer's payoff memo: a payoff the
// dynamics already queried is a memo hit, which returns the bits the
// oracle computed for that same ordered tenant tuple, so the certificate
// is exactly the one a cold oracle would give. cfg must be defaulted.
func verify(sc *sched.Scorer, players []simdb.BenchID, assign []int, cfg Config) (bool, error) {
	g := newGame(sc, players, cfg, nil)
	if err := g.place(assign); err != nil {
		return false, err
	}
	for p := range players {
		cur, err := g.current(assign[p])
		if err != nil {
			return false, err
		}
		for m := 0; m < cfg.Machines; m++ {
			if m == assign[p] || g.occ[m] >= cfg.Capacity {
				continue
			}
			pay, err := g.score(g.tuple(m, p))
			if err != nil {
				return false, err
			}
			if pay > cur+tol {
				return false, nil
			}
		}
	}
	return true, nil
}

// Solve computes a certified pure Nash equilibrium of the placement game:
// the master loop explores cfg.Restarts seeded starts (in parallel on
// cfg.Workers, bit-identically for any worker count) and returns the
// certified equilibrium with the highest fleet objective, ties broken by
// the lowest start index. Players are interned once per call. Each worker
// answers repeated payoff queries of a start from its own unlocked cache
// and sends the rest to the scorer's payoff memo, which the parallel
// starts share. When every start cycles, exceeds MaxRounds or
// fails the certificate, the error wraps ErrNoEquilibrium — callers with
// a fallback policy (the cluster engine) degrade on that error alone.
//
//qosrma:allow(testonly) perfbench calls it
func Solve(sc *sched.Scorer, players []string, cfg Config) (*Equilibrium, error) {
	ids, err := sc.AppendIDs(make([]simdb.BenchID, 0, len(players)), players)
	if err != nil {
		return nil, err
	}
	return SolveIDs(sc, ids, cfg)
}

// SolveIDs is Solve over interned players.
func SolveIDs(sc *sched.Scorer, players []simdb.BenchID, cfg Config) (*Equilibrium, error) {
	cfg, err := cfg.withDefaults(sc, len(players))
	if err != nil {
		return nil, err
	}
	results := make([]*Equilibrium, cfg.Restarts)
	errs := make([]error, cfg.Restarts)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(cfg.Workers, cfg.Restarts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := cachePool.Get().(*payoffCache)
			defer cachePool.Put(cache)
			g := newGame(sc, players, cfg, cache)
			for r := int(next.Add(1)) - 1; r < cfg.Restarts; r = int(next.Add(1)) - 1 {
				results[r], errs[r] = g.solveStart(r)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var best *Equilibrium
	for _, eq := range results {
		if eq == nil {
			continue
		}
		if best == nil || eq.Fleet > best.Fleet {
			best = eq
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w in %d starts (raise Restarts/MaxRounds)", ErrNoEquilibrium, cfg.Restarts)
	}
	best.Starts = cfg.Restarts
	return best, nil
}

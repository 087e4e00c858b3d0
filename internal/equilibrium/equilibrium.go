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
// scratch by the no-improvement certificate (Verify) — the fixed point
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
	// Tol is the payoff-improvement tolerance below which a deviation is
	// not considered profitable (default 1e-12) — the same epsilon the
	// swap descent uses, keeping fixed points stable under float noise.
	Tol float64
}

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
	// Certified reports that Verify confirmed the no-improvement
	// certificate. Solve only returns certified equilibria.
	Certified bool
}

// withDefaults validates cfg against the oracle and the player count and
// fills defaults.
func (cfg Config) withDefaults(sc *sched.Scorer, players int) (Config, error) {
	if cfg.Machines < 1 {
		return cfg, fmt.Errorf("equilibrium: need at least one machine, got %d", cfg.Machines)
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
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-12
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

// game is the per-start dynamics state.
type game struct {
	sc      *sched.Scorer
	players []simdb.BenchID
	cfg     Config

	assign []int
	occ    []int
	buf    sched.ScoreBuf
	ids    []simdb.BenchID // tenant-tuple scratch, rebuilt per payoff query
}

// tenantsWith appends machine m's tenants in ascending player order into
// g.ids, with player p's strategy overridden to pm (pass p = -1 to take
// the profile as is). The ascending-index order is the canonical tenant
// order everywhere in this package, so a payoff evaluated for a deviation
// is bit-identical to the machine's score after actually moving — and is
// the same memo entry of the scorer.
//
//qosrma:noalloc
func (g *game) tenantsWith(m, p, pm int) []simdb.BenchID {
	g.ids = g.ids[:0]
	for q, qm := range g.assign {
		if q == p {
			qm = pm
		}
		if qm == m {
			g.ids = append(g.ids, g.players[q])
		}
	}
	return g.ids
}

// payoff scores machine m with player p's strategy overridden to pm.
func (g *game) payoff(m, p, pm int) (float64, error) {
	return g.sc.ScoreIDs(g.tenantsWith(m, p, pm), &g.buf)
}

// bestResponse moves player p to its best feasible machine; it reports
// whether p moved. Deviations are profitable only beyond Tol, and ties
// keep the lowest machine index (the current machine wins all ties), so
// the dynamics are deterministic.
//
//qosrma:noalloc
func (g *game) bestResponse(p int) (bool, error) {
	cur := g.assign[p]
	curPay, err := g.payoff(cur, -1, 0)
	if err != nil {
		return false, err
	}
	bestM, bestPay := cur, curPay
	for m := 0; m < g.cfg.Machines; m++ {
		if m == cur || g.occ[m] >= g.cfg.Capacity {
			continue
		}
		pay, err := g.payoff(m, p, m)
		if err != nil {
			return false, err
		}
		if pay > bestPay+g.cfg.Tol {
			bestM, bestPay = m, pay
		}
	}
	if bestM == cur {
		return false, nil
	}
	g.occ[cur]--
	g.occ[bestM]++
	g.assign[p] = bestM
	return true, nil
}

// profileKey encodes the assignment for exact cycle detection (two bytes
// per player keeps the key exact for any realistic fleet size).
func profileKey(assign []int) string {
	b := make([]byte, 2*len(assign))
	for i, m := range assign {
		b[2*i] = byte(m)
		b[2*i+1] = byte(m >> 8)
	}
	return string(b)
}

// solveStart runs one seeded start to a certified equilibrium, or reports
// (nil, nil) when the start cycles, exceeds MaxRounds, or fails the
// certificate.
func solveStart(sc *sched.Scorer, players []simdb.BenchID, cfg Config, start int) (*Equilibrium, error) {
	rng := stats.NewRNG(stats.SeedFrom(cfg.Seed, fmt.Sprintf("equilibrium/start/%d", start)))
	n := len(players)
	g := &game{sc: sc, players: players, cfg: cfg,
		assign: make([]int, n), occ: make([]int, cfg.Machines)}

	// Initial profile: the caller's warm start for start 0, otherwise a
	// seeded feasible assignment (shuffled machine slots).
	if start == 0 && cfg.Initial != nil {
		copy(g.assign, cfg.Initial)
	} else {
		slots := make([]int, 0, cfg.Machines*cfg.Capacity)
		for m := 0; m < cfg.Machines; m++ {
			for c := 0; c < cfg.Capacity; c++ {
				slots = append(slots, m)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		copy(g.assign, slots[:n])
	}
	for _, m := range g.assign {
		g.occ[m]++
	}
	order := rng.Perm(n)

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

	ok, err := verify(sc, players, g.assign, cfg)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	eq := &Equilibrium{
		Assignment: g.assign,
		Machines:   tenantLists(sc, players, g.assign, cfg.Machines),
		Payoffs:    make([]float64, n),
		Rounds:     rounds,
		Start:      start,
		Certified:  true,
	}
	var fleetSum float64
	occupied := 0
	for m := 0; m < cfg.Machines; m++ {
		if len(eq.Machines[m]) == 0 {
			continue
		}
		s, err := g.payoff(m, -1, 0)
		if err != nil {
			return nil, err
		}
		fleetSum += s
		occupied++
		for p, pm := range g.assign {
			if pm == m {
				eq.Payoffs[p] = s
			}
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

// Verify checks the no-improvement certificate from scratch: for every
// player and every feasible alternative machine, the unilateral deviation
// payoff must not beat the player's current payoff by more than Tol. It
// rebuilds the occupancy from assign and shares no dynamics state with
// Solve, so a true result is an independent proof that assign is a pure
// Nash equilibrium of the scorer's game. It does share the scorer's
// payoff memo: a payoff the dynamics already queried is a memo hit, which
// returns the bits the oracle computed for that same ordered tenant tuple,
// so the certificate is exactly the one a cold oracle would give.
func Verify(sc *sched.Scorer, players []string, assign []int, cfg Config) (bool, error) {
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

// verify is Verify over interned players and a defaulted config.
func verify(sc *sched.Scorer, players []simdb.BenchID, assign []int, cfg Config) (bool, error) {
	if len(assign) != len(players) {
		return false, fmt.Errorf("equilibrium: assignment has %d entries for %d players",
			len(assign), len(players))
	}
	g := &game{sc: sc, players: players, cfg: cfg,
		assign: assign, occ: make([]int, cfg.Machines)}
	for _, m := range assign {
		if m < 0 || m >= cfg.Machines {
			return false, fmt.Errorf("equilibrium: machine %d out of range", m)
		}
		g.occ[m]++
	}
	for p := range players {
		cur, err := g.payoff(assign[p], -1, 0)
		if err != nil {
			return false, err
		}
		for m := 0; m < cfg.Machines; m++ {
			if m == assign[p] || g.occ[m] >= cfg.Capacity {
				continue
			}
			pay, err := g.payoff(m, p, m)
			if err != nil {
				return false, err
			}
			if pay > cur+cfg.Tol {
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
// the lowest start index. Players are interned once per call; every
// payoff query then goes through the scorer's payoff memo, which the
// parallel starts share. When every start cycles, exceeds MaxRounds or
// fails the certificate, the error wraps ErrNoEquilibrium — callers with
// a fallback policy (the cluster engine) degrade on that error alone.
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
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Restarts; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[r], errs[r] = solveStart(sc, players, cfg, r)
		}(r)
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

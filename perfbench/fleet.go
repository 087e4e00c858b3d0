package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"qosrma"
	"qosrma/internal/equilibrium"
	"qosrma/internal/sched"
	"qosrma/internal/stats"
)

// fleetShape is the fleet-eq scenario: traces independent Poisson traces
// per pass, each on its own fleet. The equilibrium solve time and the job
// turnarounds differ a lot from one trace to the next, so one pass pools
// many small traces (about 0.6 s each) instead of timing one large one: a
// 16-machine, 96-job trace takes about 6 s and alone varies by a third
// across seeds.
type fleetShape struct {
	machines, jobs, traces int
}

func shapeFor(smoke bool) fleetShape {
	if smoke {
		return fleetShape{machines: 4, jobs: 12, traces: 2}
	}
	return fleetShape{machines: 8, jobs: 48, traces: 16}
}

const meanInterarrivalSec = 0.125

// fleetReport is what the fleet process prints as its last line.
type fleetReport struct {
	// RunS and CPUS are the wall and CPU seconds of each pass over all
	// traces.
	RunS     []float64 `json:"run_s"`
	CPUS     []float64 `json:"cpu_s"`
	Digest   string    `json:"digest"`
	Jobs     int       `json:"jobs"`
	Departed int       `json:"departed"`
	// Savings is the mean simulated fleet energy savings over the traces.
	Savings float64 `json:"savings"`
	// TurnaroundMS are each job's simulated arrival-to-departure times.
	TurnaroundMS []float64   `json:"turnaround_ms"`
	PeakRSSMB    float64     `json:"peak_rss_mb"`
	Violations   int         `json:"violations"`
	IntervalViol int         `json:"interval_violations"`
	Invocations  int         `json:"invocations"`
	Trace        *fleetTrace `json:"trace,omitempty"`
}

// fleetTrace is the fleet's per-layer split, from a traced fleet process.
type fleetTrace struct {
	FirstFitS     float64 `json:"firstfit_s"`
	ScoredS       float64 `json:"scored_s"`
	EquilibriumS  float64 `json:"equilibrium_s"`
	FirstFitInvoc int     `json:"firstfit_invocations"`
	// Games is how many placement games the engine solved on the first
	// trace and Certified how many of those reach a certified equilibrium.
	// Of the certified ones, NoFreeCore put the arrival on a full machine
	// (the engine then falls back to scored placement) and Agree put it
	// where the engine did.
	Games      int `json:"games"`
	Certified  int `json:"certified"`
	NoFreeCore int `json:"no_free_core"`
	Agree      int `json:"agree"`
	// SolveMS is the median time of one solve; SolveRounds the mean
	// best-response rounds of the certified ones.
	SolveMS     float64 `json:"solve_ms"`
	SolveRounds float64 `json:"solve_rounds"`
	ScoreColdUS float64 `json:"score_cold_us"`
	ScoreWarmUS float64 `json:"score_warm_us"`
}

// fleetSpecs are the pass's cluster scenarios, one per trace, each trace
// drawn from its own seed derived from the run's seed.
func fleetSpecs(seed uint64, sh fleetShape, placement qosrma.ClusterPlacement) []qosrma.ClusterSpec {
	specs := make([]qosrma.ClusterSpec, sh.traces)
	for k := range specs {
		specs[k] = qosrma.ClusterSpec{
			Machines: sh.machines, Scheme: qosrma.RM2, Slack: slack,
			NumJobs: sh.jobs, MeanInterarrivalSec: meanInterarrivalSec,
			Seed:      stats.SeedFrom(seed, "perfbench/fleet/"+strconv.Itoa(k)),
			Placement: placement,
		}
	}
	return specs
}

// fleetMain is the fleet process: a fresh one per run, so the database
// build it times is cold (the profile cache, the SimPoint memo and the
// suite are process-wide). It prints "ready" once the database is built;
// with -setup-only it stops there. Otherwise it runs passes over the
// traces until -seconds have passed (at least one), checks that every pass
// produces the same per-job CSV, and prints its report.
func fleetMain(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	smoke := fs.Bool("smoke", false, "a small fleet")
	seconds := fs.Float64("seconds", 0, "repeat passes until this much time has passed")
	setupOnly := fs.Bool("setup-only", false, "exit once the database is built")
	trace := fs.Bool("trace", false, "also run the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh := shapeFor(*smoke)
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	sys, err := qosrma.NewSystem(4)
	if err != nil {
		return fail(err)
	}
	rep := fleetReport{Jobs: sh.jobs * sh.traces}
	fmt.Println("ready")
	if *setupOnly {
		return 0
	}
	specs := fleetSpecs(*seed, sh, qosrma.PlaceEquilibrium)
	runStart := time.Now()
	for len(rep.RunS) == 0 || since(runStart) < *seconds {
		first := len(rep.RunS) == 0
		h := sha256.New()
		t, cpu := time.Now(), selfCPUSeconds()
		for _, spec := range specs {
			res, err := sys.Cluster(spec)
			if err != nil {
				return fail(err)
			}
			if err := qosrma.WriteClusterCSV(h, res); err != nil {
				return fail(err)
			}
			if !first {
				continue
			}
			rep.Savings += res.EnergySavings / float64(len(specs))
			rep.Violations += res.Violations
			rep.IntervalViol += res.IntervalViolations
			for _, j := range res.Jobs {
				if j.FinishSec > j.Job.TimeSec {
					rep.Departed++
				}
				rep.TurnaroundMS = append(rep.TurnaroundMS, (j.FinishSec-j.Job.TimeSec)*1e3)
			}
			for _, m := range res.Machines {
				rep.Invocations += m.Invocations
			}
		}
		rep.RunS = append(rep.RunS, since(t))
		rep.CPUS = append(rep.CPUS, selfCPUSeconds()-cpu)
		digest := hex.EncodeToString(h.Sum(nil))
		if !first && digest != rep.Digest {
			return fail(fmt.Errorf("per-job CSV digest changed between passes: %s then %s", rep.Digest, digest))
		}
		rep.Digest = digest
	}
	if *trace {
		if rep.Trace, err = traceFleet(sys, *seed, sh); err != nil {
			return fail(err)
		}
	}
	if rep.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return fail(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	return 0
}

// traceFleet attributes the pass's time: each placement policy runs on the
// same traces, so first-fit is the engine plus rmasim stepping, scored adds
// the scorer, and equilibrium adds the solver. Direct calls time the
// solver and the scorer on the trace's own tenant sets.
func traceFleet(sys *qosrma.System, seed uint64, sh fleetShape) (*fleetTrace, error) {
	tr := &fleetTrace{}
	var first *qosrma.ClusterResult // the first trace under equilibrium placement
	for _, p := range []struct {
		placement qosrma.ClusterPlacement
		dst       *float64
	}{
		{qosrma.PlaceFirstFit, &tr.FirstFitS},
		{qosrma.PlaceScored, &tr.ScoredS},
		{qosrma.PlaceEquilibrium, &tr.EquilibriumS},
	} {
		t := time.Now()
		for _, spec := range fleetSpecs(seed, sh, p.placement) {
			res, err := sys.Cluster(spec)
			if err != nil {
				return nil, err
			}
			if p.placement == qosrma.PlaceFirstFit {
				for _, m := range res.Machines {
					tr.FirstFitInvoc += m.Invocations
				}
			}
			if p.placement == qosrma.PlaceEquilibrium && first == nil {
				first = res
			}
		}
		*p.dst = since(t)
	}
	db := sys.DB()

	// The solves: every game the engine solved on the first trace, rebuilt
	// from where its jobs ran, each solved once untimed to warm the scorer
	// and then timed. A game that certifies no equilibrium is timed all
	// the same: giving up is what the engine pays before it falls back to
	// scored placement.
	games := arrivalGames(first, sh.machines, db.Sys.NumCores)
	sc := sched.NewScorer(db)
	for _, g := range games {
		equilibrium.Solve(sc, g.players, g.cfg) //nolint:errcheck // warm-up only
	}
	var solves []float64
	rounds := 0
	for _, g := range games {
		t := time.Now()
		eq, err := equilibrium.Solve(sc, g.players, g.cfg)
		solves = append(solves, since(t)*1e3)
		if err != nil {
			continue
		}
		tr.Certified++
		rounds += eq.Rounds
		switch m := eq.Assignment[len(g.players)-1]; {
		case g.used[m] == g.cfg.Capacity:
			tr.NoFreeCore++
		case m == g.placed:
			tr.Agree++
		}
	}
	tr.Games = len(games)
	tr.SolveMS = median(solves)
	tr.SolveRounds = ratio(float64(rounds), float64(tr.Certified))

	var trace []string
	for _, j := range first.Jobs {
		trace = append(trace, j.Job.Bench)
	}

	// Scores of the trace's consecutive 4-tenant sets, first on a fresh
	// scorer (cold curves) and then again (warm).
	var sets [][]string
	for i := 0; i+4 <= len(trace); i += 4 {
		sets = append(sets, trace[i:i+4])
	}
	if len(sets) == 0 {
		return nil, errors.New("trace too short for a 4-tenant set")
	}
	cold := sched.NewScorer(db)
	t := time.Now()
	for _, s := range sets {
		if _, err := cold.Score(s); err != nil {
			return nil, err
		}
	}
	tr.ScoreColdUS = since(t) * 1e6 / float64(len(sets))
	const warmReps = 50
	t = time.Now()
	for r := 0; r < warmReps; r++ {
		for _, s := range sets {
			if _, err := cold.Score(s); err != nil {
				return nil, err
			}
		}
	}
	tr.ScoreWarmUS = since(t) * 1e6 / float64(warmReps*len(sets))
	return tr, nil
}

// game is one placement game the cluster engine solved on an arrival.
type game struct {
	players []string
	cfg     equilibrium.Config
	used    []int // tenants per machine before the arrival
	placed  int   // the machine the engine put the arrival on
}

// arrivalGames rebuilds, from an equilibrium-placement result, the games
// the engine solved: one per job placed on arrival while the fleet had a
// free core (a queued job is admitted without a solve). Each game is built
// as the engine builds it: the tenants running at the arrival in machine
// and core order, each warm-started on its machine, plus the arrival,
// warm-started on the lowest-indexed machine with a free core, seeded by
// the arrival's player index.
func arrivalGames(res *qosrma.ClusterResult, machines, capacity int) []game {
	var games []game
	for i, ji := range res.Jobs {
		t := ji.Job.TimeSec
		if ji.StartSec != t {
			continue
		}
		type tenant struct{ machine, core int }
		var on []tenant
		benches := map[tenant]string{}
		used := make([]int, machines)
		for k, jk := range res.Jobs {
			running := jk.StartSec < t || (jk.StartSec == t && k < i)
			if k == i || !running || jk.FinishSec <= t {
				continue
			}
			tn := tenant{jk.Machine, jk.Core}
			on = append(on, tn)
			benches[tn] = jk.Job.Bench
			used[jk.Machine]++
		}
		sort.Slice(on, func(a, b int) bool {
			if on[a].machine != on[b].machine {
				return on[a].machine < on[b].machine
			}
			return on[a].core < on[b].core
		})
		g := game{used: used, placed: ji.Machine}
		for _, tn := range on {
			g.players = append(g.players, benches[tn])
			g.cfg.Initial = append(g.cfg.Initial, tn.machine)
		}
		arrival := len(g.players)
		g.players = append(g.players, ji.Job.Bench)
		for m := range used {
			if used[m] < capacity {
				g.cfg.Initial = append(g.cfg.Initial, m)
				break
			}
		}
		g.cfg.Machines, g.cfg.Capacity = machines, capacity
		g.cfg.Seed = stats.SeedFrom(uint64(arrival), "cluster/equilibrium-place")
		games = append(games, g)
	}
	return games
}

// ---- the orchestrator side ----

// fleetRun starts a fleet process and waits for its report. The set-up
// time is measured from process start to its "ready" line.
func (r *runner) fleetRun(extra ...string) (*fleetReport, float64, error) {
	args := append([]string{"fleet", "-seed", fmt.Sprint(r.opt.seed), fmt.Sprintf("-smoke=%v", r.opt.smoke)}, extra...)
	c, err := r.procs.startTask("fleet", filepath.Join(r.opt.binDir, "perfbench"), args...)
	if err != nil {
		return nil, 0, err
	}
	setup := -1.0
	for setup < 0 {
		if strings.Contains(c.output(), "ready\n") {
			setup = since(c.start)
			break
		}
		if !c.alive() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := r.procs.wait(c, 170*time.Second); err != nil {
		return nil, 0, err
	}
	if setup < 0 {
		return nil, 0, fmt.Errorf("fleet process never reported ready: %s", c.tail())
	}
	out := strings.TrimSpace(c.output())
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if last == "ready" {
		return nil, setup, nil
	}
	var rep fleetReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, 0, fmt.Errorf("fleet report: %v: %q", err, last)
	}
	return &rep, setup, nil
}

// fleetSetups runs set-up-only fleet processes, then the measured one, and returns
// its report with the median set-up time.
func (r *runner) fleetSetups(extra ...string) (*fleetReport, float64, error) {
	var setups []float64
	for i := 0; i < r.setupRuns()-1; i++ {
		_, s, err := r.fleetRun("-setup-only")
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s)
	}
	rep, s, err := r.fleetRun(extra...)
	if err != nil {
		return nil, 0, err
	}
	setups = append(setups, s)
	return rep, median(setups), nil
}

// checkFleet counts the fleet's failed operations: jobs that never
// departed, and a per-job CSV digest that differs from the one an earlier
// run of the same source tree recorded for the same seed and shape. The
// record is keyed by the digest of the sources, so a change that moves
// placements starts a record of its own instead of failing against its
// parent's.
func (r *runner) checkFleet(rep *fleetReport) error {
	r.attempted += int64(rep.Jobs * len(rep.RunS))
	r.failed += int64(rep.Jobs - rep.Departed)
	sh := shapeFor(r.opt.smoke)
	if err := os.MkdirAll(r.opt.stateDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.opt.stateDir, fmt.Sprintf("fleet-%s-%d-%dx%dx%d.sha256",
		sourceDigest(), r.opt.seed, sh.traces, sh.machines, sh.jobs))
	if prev, err := os.ReadFile(path); err == nil {
		if strings.TrimSpace(string(prev)) != rep.Digest {
			fmt.Printf("fleet-eq digest %s differs from the recorded %s\n", rep.Digest, strings.TrimSpace(string(prev)))
			r.mismatches += int64(rep.Jobs)
		}
		return nil
	}
	return os.WriteFile(path, []byte(rep.Digest+"\n"), 0o644)
}

func (r *runner) runFleet() (metrics, error) {
	secs := r.opt.seconds
	if r.opt.smoke {
		secs = 0
	}
	rep, setup, err := r.fleetSetups("-seconds", fmt.Sprint(secs))
	if err != nil {
		return nil, err
	}
	if err := r.checkFleet(rep); err != nil {
		return nil, err
	}
	runS := median(rep.RunS)
	turn := append([]float64(nil), rep.TurnaroundMS...)
	sort.Float64s(turn)
	fmt.Printf("fleet-eq fleet_run_s=%.4f s (median of %d passes) fleet_savings_pct=%.4f %% turnaround_p90_ms=%.0f departed=%d/%d digest=%s\n",
		runS, len(rep.RunS), rep.Savings*100, quantile(turn, 0.9), rep.Departed, rep.Jobs, rep.Digest[:16])
	m := metrics{}
	m.set("setup_s", setup, "s")
	m.set("peak_rss_mb", rep.PeakRSSMB, "MB")
	m.set("cpu_us_per_op", 1e6*median(rep.CPUS)/float64(rep.Jobs), "us")
	m.set("p50_ms", quantile(turn, 0.5), "ms")
	m.set("savings_pct", rep.Savings*100, "%")
	return m, nil
}

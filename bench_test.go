// Benchmarks: one per table/figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md) plus micro-benchmarks of the hot
// kernels. Experiment benches report the headline metric of the artifact
// they regenerate (avgSavings%/maxSavings% etc.) via b.ReportMetric, so
// `go test -bench=.` reproduces the evaluation end to end.
package qosrma

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/equilibrium"
	"qosrma/internal/experiments"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/sched"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/simpoint"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
	"qosrma/internal/wire"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping multi-second environment build in -short mode")
	}
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	// The shared environment is built once per process: set-up, not the
	// measured operation, even when this benchmark happens to run first.
	b.ResetTimer()
	return env
}

// paperISchemes are the schemes compared in Paper I's headline figures.
func paperISchemes() []core.Scheme {
	return []core.Scheme{
		core.SchemeDVFSOnly,
		core.SchemePartitionOnly,
		core.SchemeCoordDVFSCache,
	}
}

// BenchmarkP1EnergySavings4Core regenerates P1.F4: per-workload energy
// savings of DVFS-only / RM1 / RM2 on the twenty 4-core mixes (paper: RM2
// up to 18%, average 6%; RM1 average 1%).
func BenchmarkP1EnergySavings4Core(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		exp, err := experiments.RunEnergySavings(env.DB4, env.Mixes4, paperISchemes(), core.Model2, false)
		if err != nil {
			b.Fatal(err)
		}
		rm2 := exp.Schemes[2]
		b.ReportMetric(rm2.Avg()*100, "avgSavings%")
		b.ReportMetric(rm2.Max()*100, "maxSavings%")
	}
}

// BenchmarkP1EnergySavings8Core regenerates P1.F8 (paper: RM2 up to 14%,
// average 6%; RM1 average 2%).
func BenchmarkP1EnergySavings8Core(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		exp, err := experiments.RunEnergySavings(env.DB8, env.Mixes8, paperISchemes(), core.Model2, false)
		if err != nil {
			b.Fatal(err)
		}
		rm2 := exp.Schemes[2]
		b.ReportMetric(rm2.Avg()*100, "avgSavings%")
		b.ReportMetric(rm2.Max()*100, "maxSavings%")
	}
}

// BenchmarkP1PerfectModels regenerates P1.PM: RM2 with oracle statistics
// (paper: average 8% savings, close to the realistic result).
func BenchmarkP1PerfectModels(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunPerfectVsRealistic(env.DB4, env.Mixes4,
			core.SchemeCoordDVFSCache, core.Model2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Perfect.Avg()*100, "perfectAvg%")
		b.ReportMetric(cmp.Realistic.Avg()*100, "realisticAvg%")
	}
}

// BenchmarkP1QoSViolations regenerates P1.QV: the per-application QoS
// violation census under realistic models (paper: 13/80 apps, average 3%,
// max 9%).
func BenchmarkP1QoSViolations(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		exp, err := experiments.RunEnergySavings(env.DB4, env.Mixes4,
			[]core.Scheme{core.SchemeCoordDVFSCache}, core.Model2, false)
		if err != nil {
			b.Fatal(err)
		}
		q := experiments.QoSOf(exp.Schemes[0].Results)
		b.ReportMetric(float64(q.Violations), "violations")
		b.ReportMetric(q.AvgPct, "avgViol%")
		b.ReportMetric(q.MaxPct, "maxViol%")
	}
}

// BenchmarkP1Relaxation regenerates P1.RX: savings versus QoS slack with
// perfect models (paper: up to 29% and on average 17% at ~40% slack).
func BenchmarkP1Relaxation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunRelaxationSweep(env.DB4, env.Mixes4,
			core.SchemeCoordDVFSCache, []float64{0, 0.2, 0.4, 0.6, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		at40 := points[2]
		b.ReportMetric(at40.Avg*100, "avg@40%")
		b.ReportMetric(at40.Max*100, "max@40%")
	}
}

// BenchmarkP1SubsetRelaxation regenerates P1.SUB: slack granted only to a
// subset of the workload.
func BenchmarkP1SubsetRelaxation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSubsetRelaxation(env.DB4, env.Mixes4[4], 0.4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Savings*100, "allRelaxed%")
	}
}

// BenchmarkP1BaselineVF regenerates P1.VF: sensitivity of the savings to
// the baseline VF choice.
func BenchmarkP1BaselineVF(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunBaselineVFSensitivity(env.DB4, env.Mixes4,
			[]float64{1.6, 2.0, 2.4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Avg*100, "avg@1.6GHz%")
		b.ReportMetric(points[2].Avg*100, "avg@2.4GHz%")
	}
}

// BenchmarkP1RMAOverhead regenerates P1.OV: the steady-state cost of one
// RM2 invocation on four cores (paper: <40K instructions, ~0.04% of a
// 100M-instruction interval).
func BenchmarkP1RMAOverhead(b *testing.B) {
	env := benchEnv(b)
	probe, err := experiments.NewOverheadProbe(env.DB4, core.SchemeCoordDVFSCache, core.Model2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Invoke()
	}
}

// BenchmarkP2Scenarios regenerates P2.SC: the 16-category-mix systematic
// analysis (paper: RM3 substantially improves savings in 12 of 16 mixes).
func BenchmarkP2Scenarios(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		an, err := experiments.RunScenarioAnalysis(env.DB4, env.MixesII, core.Model3)
		if err != nil {
			b.Fatal(err)
		}
		improved := 0
		for _, o := range an.Outcomes {
			if o.RM3 >= 0.025 {
				improved++
			}
		}
		b.ReportMetric(float64(improved), "rm3EffectiveMixes")
	}
}

// BenchmarkP2RM123 regenerates P2.S1-S4: RM2 versus RM3 per scenario
// (paper: Scenario 1 RM3 average 14%, max 17.6%, up to 60% above RM2).
func BenchmarkP2RM123(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		an, err := experiments.RunScenarioAnalysis(env.DB4, env.MixesII, core.Model3)
		if err != nil {
			b.Fatal(err)
		}
		st := an.Stats()
		b.ReportMetric(st[0].RM3Avg*100, "s1RM3avg%")
		b.ReportMetric(st[0].RM2Avg*100, "s1RM2avg%")
	}
}

// BenchmarkP2Models regenerates P2.MD: Model 1/2/3 under RM3 (paper:
// Model 3 violation probability 3%, 32%/46% below Models 2/1).
func BenchmarkP2Models(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunModelComparison(env.DB4, env.Mixes4,
			core.SchemeCoordCoreDVFSCache)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].ViolationProb*100, "m3ViolProb%")
		b.ReportMetric(rows[1].ViolationProb*100, "m2ViolProb%")
		b.ReportMetric(rows[0].ViolationProb*100, "m1ViolProb%")
	}
}

// BenchmarkP2RM3Overhead2Core, 4Core and 8Core regenerate P2.OV: RM3
// invocation cost versus core count (paper: 18K/40K/67K instructions for
// 2/4/8 cores).
func BenchmarkP2RM3Overhead2Core(b *testing.B) {
	db2 := twoCoreDB(b)
	probe, err := experiments.NewOverheadProbe(db2, core.SchemeCoordCoreDVFSCache, core.Model3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Invoke()
	}
}

var (
	db2Once sync.Once
	db2Inst *simdb.DB
	db2Err  error
)

// twoCoreDB lazily builds a 2-core database for the overhead scaling bench.
func twoCoreDB(b *testing.B) *simdb.DB {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping multi-second database build in -short mode")
	}
	db2Once.Do(func() {
		db2Inst, db2Err = simdb.Build(arch.DefaultSystemConfig(2), trace.Suite(),
			simdb.DefaultBuildOptions())
	})
	if db2Err != nil {
		b.Fatal(db2Err)
	}
	return db2Inst
}

// BenchmarkP2RM3Overhead4Core measures RM3 Decide on four cores.
func BenchmarkP2RM3Overhead4Core(b *testing.B) {
	env := benchEnv(b)
	probe, err := experiments.NewOverheadProbe(env.DB4, core.SchemeCoordCoreDVFSCache, core.Model3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Invoke()
	}
}

// BenchmarkP2RM3Overhead8Core measures RM3 Decide on eight cores.
func BenchmarkP2RM3Overhead8Core(b *testing.B) {
	env := benchEnv(b)
	probe, err := experiments.NewOverheadProbe(env.DB8, core.SchemeCoordCoreDVFSCache, core.Model3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe.Invoke()
	}
}

// ---- extension and ablation benchmarks (see EXPERIMENTS.md) ----

// BenchmarkExtFeedback regenerates EXT.FB: the thesis' phase-history
// feedback proposal versus the paper's Model 2 and the MLP-ATD hardware.
func BenchmarkExtFeedback(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFeedbackAblation(env.DB4, env.Mixes4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].IntervalViolProb*100, "model2ViolProb%")
		b.ReportMetric(rows[1].IntervalViolProb*100, "feedbackViolProb%")
		b.ReportMetric(rows[2].IntervalViolProb*100, "mlpATDViolProb%")
	}
}

// BenchmarkExtScheduler regenerates EXT.SCHED: characteristics-guided
// collocation versus adversarial clustering.
func BenchmarkExtScheduler(b *testing.B) {
	env := benchEnv(b)
	apps := []string{"mcf", "omnetpp", "perlbench", "xalancbmk",
		"gamess", "hmmer", "namd", "povray"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSchedulerGuidance(env.DB4, apps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Measured*100, "adversarial%")
		b.ReportMetric(rows[1].Measured*100, "guided%")
	}
}

// BenchmarkAblationUncoordinated regenerates AB.UNC: the independent
// UCP+DVFS design versus the coordinated manager.
func BenchmarkAblationUncoordinated(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunUncoordinatedAblation(env.DB4, env.Mixes4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgSavings*100, "uncoordAvg%")
		b.ReportMetric(rows[1].AvgSavings*100, "coordAvg%")
	}
}

// BenchmarkAblationSwitchCosts regenerates AB.SW: reconfiguration-overhead
// sensitivity.
func BenchmarkAblationSwitchCosts(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSwitchCostAblation(env.DB4, env.Mixes4[:8])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgSavings*100, "x0.01%")
		b.ReportMetric(rows[2].AvgSavings*100, "x50%")
	}
}

// BenchmarkAblationBandwidth regenerates AB.BW: per-core bandwidth pressure.
func BenchmarkAblationBandwidth(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBandwidthAblation(env.DB4, env.Mixes4[:8])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[2].QoS.Violations), "viol@3GBps")
	}
}

// ---- micro-benchmarks of the substrate kernels ----

// BenchmarkATDAccess measures the auxiliary-tag-directory access path.
func BenchmarkATDAccess(b *testing.B) {
	atd := cache.NewATD(1024, 16, 1)
	rng := stats.NewRNG(1)
	lines := make([]uint32, 4096)
	for i := range lines {
		lines[i] = uint32(rng.Intn(200_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atd.Access(lines[i&4095])
	}
}

// BenchmarkStackDistances measures the full-stream distance computation
// used by the detailed simulator.
func BenchmarkStackDistances(b *testing.B) {
	bh := trace.Behavior{
		Name: "bench", IlpIPC: 2.5, APKI: 15,
		HotLines: 2000, WarmLines: 5000, PHot: 0.45, PWarm: 0.35,
		PBurst: 0.3, BurstLen: 6, BurstGap: 10, PDep: 0.2,
	}
	s := bh.Generate(7, trace.SampleParams{Accesses: 20000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Distances(1024, 16, nil, s.Measured)
	}
}

// BenchmarkMLPAnalysis measures the MLP-ATD leading-miss detection for a
// single (core, ways) point — the unit of the pre-fusion per-point loop.
func BenchmarkMLPAnalysis(b *testing.B) {
	bh := trace.Behavior{
		Name: "bench", IlpIPC: 3, APKI: 20,
		HotLines: 500, PHot: 0.2,
		PBurst: 0.4, BurstLen: 10, BurstGap: 6, PDep: 0.1,
	}
	s := bh.Generate(9, trace.SampleParams{Accesses: 20000})
	dists := cache.Distances(1024, 16, nil, s.Measured)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.AnalyzeMLP(s.Measured, dists, 4, 128, 8)
	}
}

// BenchmarkLeadingMissSurface measures the fused one-pass profiler
// producing the complete Leading[c][w] surface (3 core sizes × 17 way
// allocations) plus both miss histograms in one call — the work the naive
// pipeline needed ~51 AnalyzeMLP passes and two ATD passes for.
func BenchmarkLeadingMissSurface(b *testing.B) {
	bh := trace.Behavior{
		Name: "bench", IlpIPC: 3, APKI: 20,
		HotLines: 500, PHot: 0.2,
		PBurst: 0.4, BurstLen: 10, BurstGap: 6, PDep: 0.1,
	}
	s := bh.Generate(9, trace.SampleParams{Accesses: 20000})
	cores := []cache.CoreMLPParams{
		{ROB: 64, MSHRs: 8}, {ROB: 128, MSHRs: 8}, {ROB: 256, MSHRs: 16},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.ProfileStream(1024, 16, 32, nil, s.Measured, cores)
	}
}

// BenchmarkSimulatePhase measures the uncached detailed simulation of one
// phase — stream generation plus the fused profiling pass plus record
// derivation, the per-phase unit of database construction.
func BenchmarkSimulatePhase(b *testing.B) {
	sys := arch.DefaultSystemConfig(4)
	bench := trace.ByName("gcc")
	an := simpoint.Analyze(bench, simpoint.DefaultOptions())
	sp := trace.DefaultSampleParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simdb.SimulatePhase(sys, bench, an, 0, sp)
	}
}

// BenchmarkCurveReduction measures the global optimization (pairwise
// energy-curve reduction) for an 8-core, 32-way system.
func BenchmarkCurveReduction(b *testing.B) {
	rng := stats.NewRNG(3)
	curves := make([]*core.Curve, 8)
	for i := range curves {
		c := &core.Curve{Options: make([]core.Option, 33)}
		for w := range c.Options {
			if w == 0 || w > 25 {
				c.Options[w] = core.Option{EPI: math.Inf(1)}
				continue
			}
			c.Options[w] = core.Option{EPI: rng.Float64() + 0.1, Feasible: true}
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.AllocateWays(curves, 32); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkTreeReduction16Core measures the paper's pairwise reduction
// tree at a core count beyond the evaluated systems (scalability claim).
func BenchmarkTreeReduction16Core(b *testing.B) {
	rng := stats.NewRNG(5)
	const assoc = 64
	curves := make([]*core.Curve, 16)
	for i := range curves {
		c := &core.Curve{Options: make([]core.Option, assoc+1)}
		for w := range c.Options {
			if w == 0 || w > assoc-15 {
				c.Options[w] = core.Option{EPI: math.Inf(1)}
				continue
			}
			c.Options[w] = core.Option{EPI: rng.Float64() + 0.1, Feasible: true}
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.AllocateWaysTree(curves, assoc); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSimDBLookup measures one ground-truth performance evaluation on
// the hot path the RMA simulator uses: interned benchmark ID + lattice
// index into the compiled tables.
func BenchmarkSimDBLookup(b *testing.B) {
	env := benchEnv(b)
	db := env.DB4
	id, ok := db.BenchIDOf("mcf")
	if !ok {
		b.Fatal("mcf missing")
	}
	idx := db.Lattice.Index(db.Sys.BaselineSetting())
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += db.PerfAt(id, 0, idx).TPI
	}
	if acc <= 0 {
		b.Fatal("degenerate lookup")
	}
}

// BenchmarkSimDBLookupString measures the same lookup through the
// string-keyed compatibility wrapper (name resolution + struct copy).
func BenchmarkSimDBLookupString(b *testing.B) {
	env := benchEnv(b)
	s := env.DB4.Sys.BaselineSetting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DB4.Perf("mcf", 0, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimDBReferenceEval measures the retained on-the-fly model
// evaluation the tables are compiled from (the pre-lattice cost of Perf).
func BenchmarkSimDBReferenceEval(b *testing.B) {
	env := benchEnv(b)
	s := env.DB4.Sys.BaselineSetting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DB4.ReferencePerf("mcf", 0, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMASimRun measures a complete co-phase workload simulation.
func BenchmarkRMASimRun(b *testing.B) {
	env := benchEnv(b)
	mix := env.Mixes4[7]
	for i := 0; i < b.N; i++ {
		_, err := experiments.Execute(experiments.RunSpec{
			DB: env.DB4, Mix: mix, Scheme: core.SchemeCoordDVFSCache,
			Model: core.Model2, BaselineFreqIdx: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMASimStep measures one event of the resumable stepper: the
// completion-horizon search, exact advance, QoS audit and RMA invocation
// of a running 4-core co-phase simulation (the open-system hot path).
func BenchmarkRMASimStep(b *testing.B) {
	env := benchEnv(b)
	mix := env.Mixes4[7]
	newSim := func() *rmasim.Sim {
		mgr := core.NewManager(core.Config{
			Sys:    env.DB4.Sys,
			Power:  power.DefaultParams(env.DB4.Sys),
			Scheme: core.SchemeCoordDVFSCache,
			Model:  core.Model2,
		})
		sim, err := rmasim.New(env.DB4, mix.Apps, mgr, rmasim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		return sim
	}
	sim := newSim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.InFirstRound() == 0 {
			b.StopTimer()
			sim = newSim()
			b.StartTimer()
		}
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRun measures a small open-system fleet scenario end to
// end: seeded arrivals, scored placement, parallel machine advance,
// departures (2 machines, 8 jobs).
func BenchmarkClusterRun(b *testing.B) {
	env := benchEnv(b)
	opt := experiments.DefaultClusterOptions()
	opt.Machines = 2
	opt.Jobs = 8
	b.ResetTimer() // the shared environment build is set-up, not the run
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCluster(env.DB4, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.EnergySavings*100, "fleetSavings%")
		}
	}
}

// BenchmarkClusterEquilibrium measures one fleet run in the benchmark's
// fleet-eq trace shape: 8 machines, 48 Poisson jobs at a 0.125 s mean
// interarrival, RM2 with slack 0.2, equilibrium placement. A fresh scorer
// per run, so every run pays its own curve builds and fills its own
// payoff memo, as each cluster run does.
func BenchmarkClusterEquilibrium(b *testing.B) {
	env := benchEnv(b)
	opt := experiments.DefaultClusterOptions()
	opt.Machines = 8
	opt.Jobs = 48
	opt.MeanInterarrivalSec = 0.125
	opt.Placement = cluster.PlaceEquilibrium
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCluster(env.DB4, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.EnergySavings*100, "fleetSavings%")
			b.ReportMetric(float64(res.EquilibriumFallbacks), "fallbacks")
		}
	}
}

// equilibriumPlayers is the 8-player fixture for the equilibrium
// benchmarks: two machine-loads of mixed sensitivities.
var equilibriumPlayers = []string{
	"mcf", "omnetpp", "perlbench", "xalancbmk",
	"gamess", "hmmer", "namd", "povray",
}

// BenchmarkEquilibrium measures one certified pure-Nash solve of the
// placement game on warm scorer caches: 8 players on two 4-core machines,
// best-response dynamics over four seeded starts plus the independent
// no-improvement certificate (the per-arrival cost of the cluster
// engine's equilibrium placement policy).
func BenchmarkEquilibrium(b *testing.B) {
	env := benchEnv(b)
	sc := sched.NewScorer(env.DB4)
	cfg := equilibrium.Config{Machines: 2, Capacity: 4, Seed: 1}
	if _, err := equilibrium.Solve(sc, equilibriumPlayers, cfg); err != nil {
		b.Fatal(err) // warm the curve caches before timing
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eq, err := equilibrium.Solve(sc, equilibriumPlayers, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !eq.Certified {
			b.Fatal("uncertified equilibrium")
		}
	}
}

// scorerColdMachines is the workload of the cold-scorer benchmarks: 12
// distinct 4-tenant machines over the full suite, so a cold scorer must
// build every aggregate-statistics and curve key from scratch.
func scorerColdMachines(db *simdb.DB) [][]string {
	names := db.BenchNames()
	var machines [][]string
	for i := 0; i+4 <= len(names); i += 2 {
		machines = append(machines, names[i:i+4])
	}
	return machines
}

// BenchmarkScorerColdSerial measures scoring the cold-machine set on a
// fresh scorer from one goroutine — the single-flight baseline the
// parallel variant is compared against.
func BenchmarkScorerColdSerial(b *testing.B) {
	env := benchEnv(b)
	machines := scorerColdMachines(env.DB4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := sched.NewScorer(env.DB4)
		var buf sched.ScoreBuf
		for _, m := range machines {
			if _, err := sc.ScoreInto(m, &buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(machines)), "scores/op")
}

// BenchmarkScorerColdParallel runs GOMAXPROCS goroutines over the whole
// cold-machine set sharing one scorer — workers× the scoring work of
// BenchmarkScorerColdSerial, colliding on every cold key. Builds run
// outside the scorer lock behind per-key single-flight, so the time per
// op stays near the serial bench (the multiplied work scales across
// cores) instead of growing with the worker count as it did when the
// lock was held across curve builds; scores/op records the multiplier
// for the benchdiff artifact.
func BenchmarkScorerColdParallel(b *testing.B) {
	env := benchEnv(b)
	machines := scorerColdMachines(env.DB4)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := sched.NewScorer(env.DB4)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var buf sched.ScoreBuf
				for k := range machines {
					m := machines[(k+w)%len(machines)]
					if _, err := sc.ScoreInto(m, &buf); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(workers*len(machines)), "scores/op")
}

// BenchmarkSimDBBuild measures the offline detailed-simulation step for one
// benchmark (the thesis Figure 2.1 database construction, per application).
// The process-wide profile cache is reset each iteration so the cold build
// cost is what is measured.
func BenchmarkSimDBBuild(b *testing.B) {
	sys := benchEnv(b).DB4.Sys
	bench := trace.ByName("gcc")
	opt := simdb.DefaultBuildOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simdb.ResetProfileCache()
		if _, err := simdb.Build(sys, []*trace.Benchmark{bench}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPointAnalyze measures the SimPoint stage of a cold build on
// one goroutine: simpoint.Analyze over the whole suite. Analyze itself
// keeps no cache (simdb's analysis memo sits above it), so every
// iteration clusters from scratch.
func BenchmarkSimPointAnalyze(b *testing.B) {
	suite := trace.Suite()
	opt := simpoint.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bench := range suite {
			simpoint.Analyze(bench, opt)
		}
	}
}

// BenchmarkEnvBuild measures the full offline environment construction —
// both databases, characterizations and mixes — cold (profile cache reset
// each iteration). This is the build-side headline number recorded in the
// CI bench artifact; the query-side counterpart is BenchmarkSimDBLookup.
func BenchmarkEnvBuild(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping multi-second environment build in -short mode")
	}
	for i := 0; i < b.N; i++ {
		simdb.ResetProfileCache()
		if _, err := experiments.BuildEnv(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireRequest builds a representative decide frame: a 64-query
// batch of 4-core co-phase vectors under uniform slack — the shape the
// serving hot path sees from loadgen and batch-oriented clients.
func benchWireRequest() *wire.DecideRequest {
	rng := stats.NewRNG(stats.SeedFrom(1, "bench/wire"))
	req := &wire.DecideRequest{
		Seq:    7,
		DBHash: 0x1234567890abcdef,
		Scheme: 3, // rm2
		NCores: 4,
		Flags:  wire.FlagSlackUniform,
		Slack:  0.2,
	}
	for q := 0; q < 64; q++ {
		for c := 0; c < 4; c++ {
			req.Apps = append(req.Apps, wire.App{
				Bench: uint16(rng.Intn(16)),
				Phase: uint16(rng.Intn(8)),
			})
		}
	}
	return req
}

// BenchmarkWireEncode measures encoding one 64-query binary decide frame
// into a reused buffer (the client side of the wire hot path).
func BenchmarkWireEncode(b *testing.B) {
	req := benchWireRequest()
	buf := wire.AppendDecideRequest(nil, req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendDecideRequest(buf[:0], req)
	}
}

// BenchmarkWireDecode measures the zero-copy decode of the same frame
// into caller-owned scratch (the server side; steady state is 0 allocs —
// pinned by TestDecodeZeroAlloc in internal/wire).
func BenchmarkWireDecode(b *testing.B) {
	frame := wire.AppendDecideRequest(nil, benchWireRequest())
	payload := frame[wire.HeaderSize:]
	var req wire.DecideRequest
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.ParseDecideRequest(payload, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideLoneColdBatch measures the trade-off of answering a
// decide batch on the request's goroutine: one client, one request at a
// time, each a 1024-query RM2 batch of fresh co-phase vectors (so every
// query misses the LRU and runs DecideAll) over two shards. Run at
// -cpu 1,2: the shards of one request are visited one after another, so
// a lone cold batch gains nothing from a second core.
func BenchmarkDecideLoneColdBatch(b *testing.B) {
	env := benchEnv(b)
	db := env.DB4
	srv := service.New(db, nil, service.Options{Shards: 2, AuditInterval: -1})
	defer srv.Close()
	names := db.BenchNames()
	rng := stats.NewRNG(stats.SeedFrom(1, "bench/lone-cold-batch"))
	nextBody := func() []byte {
		req := service.DecideRequest{Queries: make([]service.DecideQuery, 1024)}
		for i := range req.Queries {
			apps := make([]service.AppQuery, db.Sys.NumCores)
			for c := range apps {
				name := names[rng.Intn(len(names))]
				apps[c] = service.AppQuery{Bench: name, Phase: rng.Intn(db.NumPhases(name))}
			}
			req.Queries[i] = service.DecideQuery{Scheme: "rm2", Slack: 0.2, Apps: apps}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := nextBody()
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(body))
		b.StartTimer()
		srv.ServeHTTP(rec, r)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

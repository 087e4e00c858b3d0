// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them as markdown tables (the content recorded in
// EXPERIMENTS.md). Use -only to run a subset, e.g. -only P1.F4,P2.MD.
// With -emit csv -rows rows.csv the underlying sweep points stream to a
// file as they execute, one row per point (internal/emit: -emit takes csv,
// or json, jsonl or ndjson for JSON lines, in any letter case; a CSV file
// has one header line and each row is flushed as it is written). Without
// -rows they go to stderr. The process-wide sweep cache deduplicates
// points shared between experiments (stats are logged at exit).
//
// With -cluster the command runs the open-system fleet scenario instead:
// jobs arrive from a seeded Poisson trace, are placed online by the
// collocation scorer, and depart on completion (-cluster-* flags shape the
// scenario; -emit/-rows stream per-job rows).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/experiments"
	"qosrma/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	emitFormat := flag.String("emit", "", "stream per-point sweep rows in this format (csv or json)")
	rowsPath := flag.String("rows", "", "destination file for -emit rows (default: stderr)")
	clusterMode := flag.Bool("cluster", false, "run the open-system cluster scenario instead of the paper tables")
	clusterMachines := flag.Int("cluster-machines", 4, "cluster mode: fleet size")
	clusterJobs := flag.Int("cluster-jobs", 32, "cluster mode: number of arriving jobs")
	clusterMean := flag.Float64("cluster-mean", 0.5, "cluster mode: mean interarrival time (seconds)")
	clusterSeed := flag.Uint64("cluster-seed", 1, "cluster mode: arrival-trace seed")
	clusterSlack := flag.Float64("cluster-slack", 0.2, "cluster mode: uniform QoS slack")
	clusterScheme := flag.String("cluster-scheme", "rm2", "cluster mode: rm2 or rm3")
	clusterPlacement := flag.String("cluster-placement", "scored", "cluster mode: scored, firstfit or equilibrium")
	clusterCompare := flag.Bool("cluster-compare", false, "cluster mode: run every placement policy on the same trace and print the comparison (EXT.EQ)")
	flag.Parse()

	if *clusterMode || *clusterCompare {
		runCluster(clusterFlags{
			machines: *clusterMachines, jobs: *clusterJobs, mean: *clusterMean,
			seed: *clusterSeed, slack: *clusterSlack,
			scheme: *clusterScheme, placement: *clusterPlacement,
			emitFormat: *emitFormat, rowsPath: *rowsPath,
			compare: *clusterCompare,
		})
		return
	}

	if *emitFormat != "" {
		em, closeRows := openRows[sweep.Row](*emitFormat, *rowsPath)
		defer closeRows()
		experiments.Engine().SetEmitter(em)
	}

	selected := func(id string) bool {
		if *only == "" {
			return true
		}
		for _, s := range strings.Split(*only, ",") {
			if strings.EqualFold(strings.TrimSpace(s), id) {
				return true
			}
		}
		return false
	}

	start := time.Now()
	log.Printf("building simulation databases (thesis Fig. 2.1 offline step)...")
	env, err := experiments.BuildEnv()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("databases ready in %v", time.Since(start).Round(time.Millisecond))
	out := os.Stdout

	run := func(id string, f func() error) {
		if !selected(id) {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		log.Printf("%s done in %v", id, time.Since(t0).Round(time.Millisecond))
	}

	schemes := []core.Scheme{
		core.SchemeDVFSOnly,
		core.SchemePartitionOnly,
		core.SchemeCoordDVFSCache,
	}

	run("P1.F4", func() error {
		exp, err := experiments.RunEnergySavings(env.DB4, env.Mixes4, schemes, core.Model2, false)
		if err != nil {
			return err
		}
		_, err = exp.Table("P1.F4 — Energy savings per 4-core workload (realistic Model 2)").WriteTo(out)
		return err
	})

	run("P1.F8", func() error {
		exp, err := experiments.RunEnergySavings(env.DB8, env.Mixes8, schemes, core.Model2, false)
		if err != nil {
			return err
		}
		_, err = exp.Table("P1.F8 — Energy savings per 8-core workload (realistic Model 2)").WriteTo(out)
		return err
	})

	run("P1.PM", func() error {
		cmp, err := experiments.RunPerfectVsRealistic(env.DB4, env.Mixes4, core.SchemeCoordDVFSCache, core.Model2)
		if err != nil {
			return err
		}
		_, err = cmp.Table("P1.PM/P1.QV — Perfect vs realistic models, 4-core (RM2)").WriteTo(out)
		return err
	})

	run("P1.QV8", func() error {
		cmp, err := experiments.RunPerfectVsRealistic(env.DB8, env.Mixes8, core.SchemeCoordDVFSCache, core.Model2)
		if err != nil {
			return err
		}
		_, err = cmp.Table("P1.QV8 — Perfect vs realistic models, 8-core (RM2)").WriteTo(out)
		return err
	})

	run("P1.RX", func() error {
		slacks := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
		points, err := experiments.RunRelaxationSweep(env.DB4, env.Mixes4, core.SchemeCoordDVFSCache, slacks)
		if err != nil {
			return err
		}
		_, err = experiments.RelaxationTable(points,
			"P1.RX — Energy savings vs QoS relaxation (perfect models, RM2)").WriteTo(out)
		return err
	})

	run("P1.SUB", func() error {
		mix := env.Mixes4[4] // the MS+MI+CS+CI heterogeneous mix
		rows, err := experiments.RunSubsetRelaxation(env.DB4, mix, 0.4)
		if err != nil {
			return err
		}
		_, err = experiments.SubsetTable(rows, mix,
			"P1.SUB — Savings when only a subset of the workload is relaxed (40% slack)").WriteTo(out)
		return err
	})

	run("P1.VF", func() error {
		points, err := experiments.RunBaselineVFSensitivity(env.DB4, env.Mixes4, []float64{1.6, 2.0, 2.4})
		if err != nil {
			return err
		}
		_, err = experiments.BaselineVFTable(points,
			"P1.VF — Sensitivity to the baseline VF choice (RM2, perfect models)").WriteTo(out)
		return err
	})

	run("P1.OV", func() error { return overhead(env, out) })

	run("P2.SC", func() error {
		an, err := experiments.RunScenarioAnalysis(env.DB4, env.MixesII, core.Model3)
		if err != nil {
			return err
		}
		if _, err := an.Table("P2.SC — Paper II systematic analysis: 16 category mixes").WriteTo(out); err != nil {
			return err
		}
		_, err = experiments.ScenarioTable(an.Stats(),
			"P2.S1-S4 — RM2 vs RM3 per scenario").WriteTo(out)
		return err
	})

	run("EXT.FB", func() error {
		rows, err := experiments.RunFeedbackAblation(env.DB4, env.Mixes4)
		if err != nil {
			return err
		}
		_, err = experiments.AblationTable(rows,
			"EXT.FB — Phase-history feedback (thesis future work) vs the paper's models").WriteTo(out)
		return err
	})

	run("AB.UNC", func() error {
		rows, err := experiments.RunUncoordinatedAblation(env.DB4, env.Mixes4)
		if err != nil {
			return err
		}
		_, err = experiments.AblationTable(rows,
			"AB.UNC — Uncoordinated UCP+DVFS vs coordinated RM2").WriteTo(out)
		return err
	})

	run("AB.SW", func() error {
		rows, err := experiments.RunSwitchCostAblation(env.DB4, env.Mixes4)
		if err != nil {
			return err
		}
		_, err = experiments.AblationTable(rows,
			"AB.SW — Sensitivity to reconfiguration overheads (RM3)").WriteTo(out)
		return err
	})

	run("AB.BW", func() error {
		rows, err := experiments.RunBandwidthAblation(env.DB4, env.Mixes4)
		if err != nil {
			return err
		}
		_, err = experiments.AblationTable(rows,
			"AB.BW — Per-core memory-bandwidth pressure (unmodeled by the RMA)").WriteTo(out)
		return err
	})

	run("AB.SAMP", func() error {
		rows, err := experiments.RunSamplingAblation(env.DB4.Sys, 8, []int{1, 32, 128})
		if err != nil {
			return err
		}
		_, err = experiments.AblationTable(rows,
			"AB.SAMP — ATD set-sampling density vs model fidelity (RM2)").WriteTo(out)
		return err
	})

	run("EXT.SCHED", func() error {
		apps := []string{"mcf", "omnetpp", "perlbench", "xalancbmk",
			"gamess", "hmmer", "namd", "povray"}
		rows, err := experiments.RunSchedulerGuidance(env.DB4, apps)
		if err != nil {
			return err
		}
		_, err = experiments.SchedTable(rows,
			"EXT.SCHED — Characteristics-guided collocation (thesis future work)").WriteTo(out)
		return err
	})

	run("P2.MD", func() error {
		rows, err := experiments.RunModelComparison(env.DB4, env.Mixes4, core.SchemeCoordCoreDVFSCache)
		if err != nil {
			return err
		}
		_, err = experiments.ModelTable(rows,
			"P2.MD — Model 1/2/3 comparison (RM3, realistic statistics)").WriteTo(out)
		return err
	})

	hits, misses := experiments.Engine().Cache().Stats()
	log.Printf("all selected experiments done in %v (sweep cache: %d simulated, %d deduplicated)",
		time.Since(start).Round(time.Millisecond), misses, hits)
}

// clusterFlags carries the parsed -cluster-* options.
type clusterFlags struct {
	machines, jobs       int
	mean, slack          float64
	seed                 uint64
	scheme, placement    string
	emitFormat, rowsPath string
	compare              bool
}

// openRows builds the -emit emitter over the -rows file (default: stderr).
// The returned function flushes the emitter, then closes the file.
func openRows[R emit.Row](format, path string) (emit.Emitter[R], func()) {
	var f *os.File
	w := io.Writer(os.Stderr)
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			log.Fatal(err)
		}
		w = f
	}
	em, err := emit.New[R](format, w)
	if err != nil {
		log.Fatal(err)
	}
	return em, func() {
		if err := em.Close(); err != nil {
			log.Printf("emit close: %v", err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				log.Printf("rows close: %v", err)
			}
		}
	}
}

// runCluster executes the open-system fleet scenario (EXT.CLUSTER).
func runCluster(f clusterFlags) {
	opt := experiments.DefaultClusterOptions()
	opt.Machines = f.machines
	opt.Jobs = f.jobs
	opt.MeanInterarrivalSec = f.mean
	opt.Seed = f.seed
	opt.Slack = f.slack
	scheme, err := core.ParseScheme(f.scheme)
	if err != nil || (scheme != core.SchemeCoordDVFSCache && scheme != core.SchemeCoordCoreDVFSCache) {
		log.Fatalf("unknown -cluster-scheme %q (want rm2 or rm3)", f.scheme)
	}
	opt.Scheme = scheme
	switch strings.ToLower(f.placement) {
	case "scored":
		opt.Placement = cluster.PlaceScored
	case "firstfit", "first-fit":
		opt.Placement = cluster.PlaceFirstFit
	case "equilibrium":
		opt.Placement = cluster.PlaceEquilibrium
	default:
		log.Fatalf("unknown -cluster-placement %q (want scored, firstfit or equilibrium)", f.placement)
	}
	if f.emitFormat != "" {
		em, closeRows := openRows[cluster.Row](f.emitFormat, f.rowsPath)
		defer closeRows()
		opt.Emitter = em
	}

	start := time.Now()
	log.Printf("building simulation database...")
	env, err := experiments.BuildEnv()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("database ready in %v", time.Since(start).Round(time.Millisecond))
	if f.compare {
		t0 := time.Now()
		rows, err := experiments.RunClusterComparison(env.DB4, opt)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("EXT.EQ — Placement comparison: %d machines, %d jobs (mean interarrival %.2gs, seed %d)",
			opt.Machines, opt.Jobs, opt.MeanInterarrivalSec, opt.Seed)
		if _, err := experiments.ClusterCompareTable(rows, title).WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
		log.Printf("placement comparison done in %v", time.Since(t0).Round(time.Millisecond))
		return
	}
	t0 := time.Now()
	res, err := experiments.RunCluster(env.DB4, opt)
	if err != nil {
		log.Fatal(err)
	}
	title := fmt.Sprintf("EXT.CLUSTER — Open-system fleet: %d machines, %d jobs (mean interarrival %.2gs, seed %d)",
		opt.Machines, opt.Jobs, opt.MeanInterarrivalSec, opt.Seed)
	if _, err := experiments.ClusterTable(res, title).WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	log.Printf("cluster scenario done in %v", time.Since(t0).Round(time.Millisecond))
}

// overhead measures the steady-state RMA invocation cost for RM2 (4 cores)
// and RM3 (2/4/8 cores) and relates it to the interval wall time.
func overhead(env *experiments.Env, out *os.File) error {
	var rows [][2]string
	measure := func(name string, probe *experiments.OverheadProbe, db interface {
	}) error {
		const iters = 2000
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			probe.Invoke()
		}
		per := time.Since(t0).Seconds() / iters
		rows = append(rows, [2]string{name, experiments.FormatSeconds(per)})
		return nil
	}
	p4rm2, err := experiments.NewOverheadProbe(env.DB4, core.SchemeCoordDVFSCache, core.Model2)
	if err != nil {
		return err
	}
	if err := measure("RM2, 4 cores", p4rm2, nil); err != nil {
		return err
	}
	for _, n := range []int{4, 8} {
		db := env.DB4
		if n == 8 {
			db = env.DB8
		}
		probe, err := experiments.NewOverheadProbe(db, core.SchemeCoordCoreDVFSCache, core.Model3)
		if err != nil {
			return err
		}
		if err := measure(fmt.Sprintf("RM3, %d cores", n), probe, nil); err != nil {
			return err
		}
	}
	iv, err := experiments.IntervalWallTime(env.DB4)
	if err != nil {
		return err
	}
	t := experiments.OverheadReport("P1.OV/P2.OV — RMA invocation cost", rows)
	t.AddNote("One 100M-instruction interval takes ~%s at the baseline setting.",
		experiments.FormatSeconds(iv))
	_, err = t.WriteTo(out)
	return err
}

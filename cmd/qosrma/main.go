// Command qosrma simulates one multi-programmed workload under a selected
// resource-management scheme and prints a per-application report.
//
// Examples:
//
//	qosrma -apps mcf,soplex,hmmer,namd -scheme rm2
//	qosrma -apps mcf,soplex,hmmer,namd -scheme rm3 -model 3 -slack 0.4
//	qosrma -cores 8 -apps mcf,soplex,hmmer,namd,gcc,lbm,povray,sjeng -scheme rm2 -oracle
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"qosrma"
	"qosrma/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qosrma: ")

	var (
		cores    = flag.Int("cores", 4, "number of cores")
		apps     = flag.String("apps", "mcf,soplex,hmmer,namd", "comma-separated benchmarks, one per core")
		scheme   = flag.String("scheme", "rm2", "static | dvfs | rm1 | rm2 | rm3 | ucp")
		model    = flag.Int("model", 0, "analytical model 1..3 (0 = scheme default)")
		slack    = flag.Float64("slack", 0, "QoS relaxation, e.g. 0.4 = tolerate 40% slowdown")
		oracle   = flag.Bool("oracle", false, "use perfect (oracle) statistics")
		dbPath   = flag.String("db", "", "load the simulation database from this file instead of building it")
		listApps = flag.Bool("list", false, "list available benchmarks and exit")
		timeline = flag.Int("timeline", 0, "print the first N allocation changes")
	)
	flag.Parse()

	if *listApps {
		fmt.Println(strings.Join(qosrma.Benchmarks(), "\n"))
		return
	}

	sc, err := core.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}

	var sys *qosrma.System
	if *dbPath != "" {
		sys, err = qosrma.LoadSystem(*dbPath)
	} else {
		log.Printf("building %d-core simulation database...", *cores)
		sys, err = qosrma.NewSystem(*cores)
	}
	if err != nil {
		log.Fatal(err)
	}

	opts := []qosrma.Option{}
	switch *model {
	case 0:
	case 1:
		opts = append(opts, qosrma.WithModel(qosrma.Model1))
	case 2:
		opts = append(opts, qosrma.WithModel(qosrma.Model2))
	case 3:
		opts = append(opts, qosrma.WithModel(qosrma.Model3))
	default:
		log.Fatalf("unknown model %d", *model)
	}
	if *slack > 0 {
		opts = append(opts, qosrma.WithSlack(*slack))
	}
	if *oracle {
		opts = append(opts, qosrma.WithOracle())
	}

	workload := strings.Split(*apps, ",")
	if *timeline > 0 {
		opts = append(opts, qosrma.WithTimeline())
	}
	res, err := sys.Run(workload, sc, opts...)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "core\tapp\ttime\tbaseline\texcess\tenergy\tbaseline\tsaved\tavg alloc\tQoS\n")
	for _, a := range res.Apps {
		status := "ok"
		if a.Violated() {
			status = "VIOLATED"
		}
		fmt.Fprintf(w, "%d\t%s\t%.1fs\t%.1fs\t%+.1f%%\t%.1fJ\t%.1fJ\t%+.1f%%\t%.2fGHz/%.1fw\t%s\n",
			a.Core, a.Bench, a.Time, a.BaselineTime, a.ExcessTime*100,
			a.Energy, a.BaselineEnergy, (1-a.Energy/a.BaselineEnergy)*100,
			a.MeanFreqGHz, a.MeanWays, status)
	}
	w.Flush()
	fmt.Printf("\nscheme %s: system energy savings %.2f%%, %d QoS violations, %d RMA invocations\n",
		res.Scheme, res.EnergySavings*100, res.Violations, res.Invocations)
	fmt.Printf("interval QoS audit: %d/%d intervals violated (%.2f%%), mean magnitude %.2f%%\n",
		res.IntervalViolations, res.Intervals,
		float64(res.IntervalViolations)/float64(max(res.Intervals, 1))*100, res.ViolationMeanPct)

	if *timeline > 0 {
		fmt.Printf("\nallocation timeline (%d changes total, showing up to %d):\n",
			len(res.Timeline), *timeline)
		for i, ev := range res.Timeline {
			if i >= *timeline {
				break
			}
			fmt.Printf("  t=%8.3fs core %d -> %s %.1fGHz %dw\n",
				ev.TimeSec, ev.Core, ev.Setting.Size,
				sys.Config().DVFS[ev.Setting.FreqIdx].FreqGHz, ev.Setting.Ways)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

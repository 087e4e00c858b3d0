// Command perfbench is the repository benchmark. It builds nothing itself
// (run.sh builds qosrmad and this program from the source tree) and runs one
// workload against fresh program processes:
//
//	wire-hot   binary protocol straight to one qosrmad, hot LRUs
//	json-cold  HTTP/JSON straight to one qosrmad, population far above the LRUs
//	tier-wire  binary protocol through a qosrmad -route tier over two groups
//	fleet-eq   equilibrium-placement cluster runs through the qosrma facade
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload wire-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of the workload. With
// --trace 1 it runs the traced pass instead: every workload's layers are
// measured from outside the program (timed calls into each layer's public
// functions, /metrics scrapes and /proc) and printed as the per-layer
// ledger, ending with each workload's unattributed remainder. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --smoke shrinks every phase and the fleet so the whole command runs in
// seconds; the package test uses it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	binDir   string
	stateDir string
}

// workloads lists every workload in BENCHMARK.json order; the reasons for
// each are recorded there and in README.md.
var workloads = []string{"wire-hot", "json-cold", "tier-wire", "fleet-eq"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fleet":
			os.Exit(fleetMain(os.Args[2:]))
		case "buildstages":
			os.Exit(buildStagesMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny phases and a small fleet")
	fs.StringVar(&opt.binDir, "bin", "", "directory holding the qosrmad and perfbench binaries")
	fs.StringVar(&opt.stateDir, "state", "", "directory for cross-run state (fleet digests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	known := false
	for _, w := range workloads {
		known = known || w == opt.workload
	}
	if !known || opt.binDir == "" || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, a known --workload, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if opt.stateDir == "" {
		opt.stateDir = filepath.Join(opt.binDir, "state")
	}

	r := newRunner(opt)
	// Every spawned process dies with the run, whichever way it ends.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		r.procs.stopAll()
		os.Exit(1)
	}()
	defer r.procs.stopAll()

	r.printEnv()
	var (
		m   metrics
		err error
	)
	if opt.trace {
		m, err = r.tracedPass()
	} else {
		m, err = r.runWorkload(opt.workload)
	}
	if err == nil {
		err = r.procs.unexpectedExit()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	res := result{
		Correct:   r.mismatches == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.mismatches,
		Metrics:   m,
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operations attempted\n", opt.workload)
		return 1
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-52s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("attempted=%d failed=%d mismatches=%d\n", r.attempted, r.failed, r.mismatches)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload untraced and returns its end-to-end
// metrics.
func (r *runner) runWorkload(name string) (metrics, error) {
	if name == "fleet-eq" {
		return r.runFleet()
	}
	return r.runServing(servingSpecs[name])
}

// printEnv prints the environment block the ledger is recorded against.
func (r *runner) printEnv() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "source-" + sourceDigest()
	}
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%v smoke=%v\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace, r.opt.smoke)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

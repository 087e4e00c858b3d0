package workload

import "qosrma/internal/stats"

// Arrival is one job of an open-system workload: a benchmark that enters
// the cluster at an absolute time. Arrival traces are the dynamic
// counterpart of the fixed Mixes above — instead of one application per
// core for one round, jobs arrive, queue, run and depart.
type Arrival struct {
	ID      int
	Bench   string
	TimeSec float64
}

// ArrivalOptions configures the deterministic arrival-trace generators.
type ArrivalOptions struct {
	// Jobs is the number of arrivals to draw.
	Jobs int
	// MeanInterarrivalSec is the mean of the exponential interarrival
	// distribution (a Poisson arrival process); larger means a lighter
	// offered load.
	MeanInterarrivalSec float64
	// Seed fully determines the trace: the same (population, options)
	// always yields the same arrivals, bit for bit.
	Seed uint64
}

// PoissonArrivals draws an open-system arrival trace: interarrival times
// are exponential with the configured mean and benchmarks are drawn
// uniformly from the population, all from one RNG stream derived from the
// seed. The result is sorted by time (construction order) and is a pure
// function of its inputs.
func PoissonArrivals(benches []string, opt ArrivalOptions) []Arrival {
	if len(benches) == 0 || opt.Jobs <= 0 {
		return nil
	}
	rng := stats.NewRNG(stats.SeedFrom(opt.Seed, "workload/arrivals"))
	out := make([]Arrival, 0, opt.Jobs)
	t := 0.0
	for i := 0; i < opt.Jobs; i++ {
		t += rng.Exp(opt.MeanInterarrivalSec)
		out = append(out, Arrival{ID: i, Bench: benches[rng.Intn(len(benches))], TimeSec: t})
	}
	return out
}

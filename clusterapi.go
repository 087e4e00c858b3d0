package qosrma

import (
	"errors"
	"io"

	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/workload"
)

// Cluster-facing re-exports.
type (
	// Arrival is one job of an open-system workload: a benchmark entering
	// the cluster at an absolute time.
	Arrival = workload.Arrival
	// ClusterResult is the outcome of one fleet scenario.
	ClusterResult = cluster.Result
	// ClusterJobResult is one job's scored outcome.
	ClusterJobResult = cluster.JobResult
	// ClusterRow is one job's flattened emitter record.
	ClusterRow = cluster.Row
	// ClusterEmitter streams per-job rows in global departure order.
	ClusterEmitter = emit.Emitter[cluster.Row]
	// ClusterPlacement selects the online placement policy.
	ClusterPlacement = cluster.Placement
)

// Placement policies.
//
//	scored       greedy: the arrival joins the machine the collocation
//	             scorer rates highest (the default)
//	first-fit    the arrival joins the lowest-numbered free machine
//	equilibrium  the arrival joins the machine it occupies in a certified
//	             pure Nash equilibrium of the collocation game
//	             (internal/equilibrium: best-response dynamics on the
//	             scorer oracle, best-of-K seeded starts)
const (
	// PlaceScored places each arrival where the collocation scorer
	// predicts the largest energy savings (the default).
	PlaceScored = cluster.PlaceScored
	// PlaceFirstFit places each arrival on the first free machine.
	PlaceFirstFit = cluster.PlaceFirstFit
	// PlaceEquilibrium places each arrival at its slot in a certified
	// pure Nash equilibrium computed over the current tenants plus the
	// arrival; it falls back to scored placement when no certified
	// equilibrium (or no physically free equilibrium slot) exists.
	PlaceEquilibrium = cluster.PlaceEquilibrium
)

// ClusterSpec declares an open-system fleet scenario: machines of this
// System's configuration, jobs arriving from a deterministic trace, placed
// online by the collocation scorer, run under per-machine resource
// managers, departing on completion. Scenarios are fully deterministic: a
// fixed spec reproduces identical results bit for bit.
type ClusterSpec struct {
	// Machines is the fleet size (each machine has this System's cores).
	Machines int
	// Scheme is the per-machine resource-management algorithm.
	Scheme Scheme
	// Model selects the analytical predictor. The zero value picks the
	// scheme default (Model2, or Model3 for RM3). Because Model1 — the
	// strawman predictor of the P2.MD comparison — is the zero value of
	// ModelKind, it is not selectable through this API; drive
	// internal/cluster directly if a fleet-scale Model1 run is ever
	// needed.
	Model ModelKind
	// Slack is the uniform QoS relaxation granted to every job.
	Slack float64

	// Jobs is an explicit arrival trace. When nil, a Poisson trace is
	// drawn deterministically from the fields below.
	Jobs []Arrival
	// NumJobs, MeanInterarrivalSec and Seed configure the generated trace
	// (used only when Jobs is nil).
	NumJobs             int
	MeanInterarrivalSec float64
	Seed                uint64
	// Benches restricts the generated trace's benchmark population
	// (default: every benchmark in the suite).
	Benches []string

	// Placement selects the online placement policy (default: scored).
	Placement ClusterPlacement
	// Timeline records every machine's allocation time-series.
	Timeline bool
	// Workers bounds the parallel machine advance (default: GOMAXPROCS).
	Workers int
	// Emitter, when set, receives one row per job in departure order as
	// the scenario executes (see NewClusterEmitter).
	Emitter ClusterEmitter
}

// Cluster executes the fleet scenario against this system's database.
func (s *System) Cluster(spec ClusterSpec) (*ClusterResult, error) {
	jobs := spec.Jobs
	if jobs == nil {
		benches := spec.Benches
		if benches == nil {
			benches = s.db.BenchNames()
		}
		if spec.NumJobs <= 0 || spec.MeanInterarrivalSec <= 0 {
			return nil, errors.New("qosrma: cluster spec needs Jobs, or NumJobs and MeanInterarrivalSec")
		}
		jobs = workload.PoissonArrivals(benches, workload.ArrivalOptions{
			Jobs:                spec.NumJobs,
			MeanInterarrivalSec: spec.MeanInterarrivalSec,
			Seed:                spec.Seed,
		})
	}
	model := spec.Model
	if model == core.Model1 {
		model = spec.Scheme.DefaultModel()
	}
	return cluster.Run(s.db, cluster.Spec{
		Machines:  spec.Machines,
		Scheme:    spec.Scheme,
		Model:     model,
		Slack:     spec.Slack,
		Jobs:      jobs,
		Placement: spec.Placement,
		Timeline:  spec.Timeline,
		Workers:   spec.Workers,
		Emitter:   spec.Emitter,
	})
}

// NewClusterEmitter builds a streaming per-job emitter by format name
// ("csv" or "json") over the writer.
func NewClusterEmitter(format string, w io.Writer) (ClusterEmitter, error) {
	return emit.New[cluster.Row](format, w)
}

// WriteClusterCSV renders a cluster result's jobs as CSV (arrival order).
func WriteClusterCSV(w io.Writer, res *ClusterResult) error {
	return emit.Write("csv", w, res.Rows())
}

// WriteClusterJSON renders a cluster result's jobs as JSON lines.
func WriteClusterJSON(w io.Writer, res *ClusterResult) error {
	return emit.Write("json", w, res.Rows())
}

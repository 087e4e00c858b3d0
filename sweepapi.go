package qosrma

import (
	"fmt"
	"io"

	"qosrma/internal/emit"
	"qosrma/internal/sweep"
	"qosrma/internal/workload"
)

// SweepSpec declares a scenario grid over a System: the cartesian product
// of every non-empty axis, in the fixed order Mixes (outermost), Schemes,
// Models, slack levels (Slacks before SlackVectors), Oracle, baseline
// frequencies, SwitchScales, BandwidthGBps, Feedback (innermost). Axes
// left nil default to a single neutral value, so the minimal sweep names
// only workloads and schemes.
type SweepSpec struct {
	// Name labels the sweep in emitted rows.
	Name string
	// Mixes are the workloads to sweep; Workloads is a shorthand that
	// wraps bare app lists (one benchmark per core) into anonymous mixes.
	Mixes     []Mix
	Workloads [][]string

	Schemes []Scheme
	// Models defaults to {Model2}.
	Models []ModelKind
	// Slacks are uniform QoS relaxations; SlackVectors relax per core.
	Slacks       []float64
	SlackVectors [][]float64
	// Oracle sweeps realistic vs perfect statistics.
	Oracle []bool
	// BaselineFreqsGHz sweeps the baseline VF choice (values snap to the
	// nearest DVFS step).
	BaselineFreqsGHz []float64
	// SwitchScales scales every reconfiguration overhead (1 = paper).
	SwitchScales []float64
	// BandwidthGBps caps the per-core memory bandwidth (0 = unconstrained).
	BandwidthGBps []float64
	// Feedback toggles the phase-history MLP table extension.
	Feedback []bool
}

// SweepResult is the outcome of a sweep: compiled points and their
// simulation results, index-aligned in the deterministic grid order.
type SweepResult = sweep.Result

// SweepRow is one aggregated record of a sweep result.
type SweepRow = sweep.Row

// Sweep compiles and executes the scenario grid on the system's sweep
// engine. Results come back in the deterministic grid order; repeated or
// overlapping sweeps on the same System reuse the engine's result cache,
// so a point is never simulated twice per System.
func (s *System) Sweep(spec SweepSpec) (*SweepResult, error) {
	mixes := append([]Mix(nil), spec.Mixes...)
	for i, apps := range spec.Workloads {
		mixes = append(mixes, workload.Mix{
			Name: fmt.Sprintf("workload%02d", i),
			Apps: append([]string(nil), apps...),
		})
	}
	models := spec.Models
	if len(models) == 0 {
		models = []ModelKind{Model2}
	}
	var baselines []int
	for _, f := range spec.BaselineFreqsGHz {
		baselines = append(baselines, s.db.Sys.DVFS.ClosestIndex(f))
	}
	return s.engine.Run(sweep.Spec{
		Name:             spec.Name,
		DB:               s.db,
		Mixes:            mixes,
		Schemes:          spec.Schemes,
		Models:           models,
		Slacks:           spec.Slacks,
		SlackVectors:     spec.SlackVectors,
		Oracle:           spec.Oracle,
		BaselineFreqIdxs: baselines,
		SwitchScales:     spec.SwitchScales,
		BandwidthGBps:    spec.BandwidthGBps,
		Feedback:         spec.Feedback,
	})
}

// SweepCacheStats reports the system's sweep-cache lookups: misses are
// simulated points, hits were served from the cache.
func (s *System) SweepCacheStats() (hits, misses int64) {
	return s.engine.Cache().Stats()
}

// WriteSweepCSV renders a sweep result as CSV.
func WriteSweepCSV(w io.Writer, res *SweepResult) error {
	return emit.Write("csv", w, res.Rows())
}

// WriteSweepJSON renders a sweep result as JSON lines.
func WriteSweepJSON(w io.Writer, res *SweepResult) error {
	return emit.Write("json", w, res.Rows())
}

package experiments

import (
	"fmt"
	"io"

	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/workload"
)

// ClusterOptions configures the EXT.CLUSTER open-system scenario: a fleet
// of machines fed by a deterministic Poisson arrival trace over the full
// benchmark population.
type ClusterOptions struct {
	Machines            int
	Jobs                int
	MeanInterarrivalSec float64
	Seed                uint64
	Slack               float64
	Scheme              core.Scheme
	Placement           cluster.Placement
	// Emitter optionally streams per-job rows as the scenario executes.
	Emitter cluster.Emitter
}

// DefaultClusterOptions returns a moderately loaded fleet: four machines,
// 32 jobs arriving every half second on average, 20% slack under RM2.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Machines:            4,
		Jobs:                32,
		MeanInterarrivalSec: 0.5,
		Seed:                1,
		Slack:               0.2,
		Scheme:              core.SchemeCoordDVFSCache,
	}
}

// RunCluster executes the open-system fleet scenario on the database. The
// analytical model follows the scheme (Model 2, or Model 3 for RM3), as in
// the closed-world experiments.
func RunCluster(db *simdb.DB, opt ClusterOptions) (*cluster.Result, error) {
	model := core.Model2
	if opt.Scheme == core.SchemeCoordCoreDVFSCache {
		model = core.Model3
	}
	jobs := workload.PoissonArrivals(db.BenchNames(), workload.ArrivalOptions{
		Jobs:                opt.Jobs,
		MeanInterarrivalSec: opt.MeanInterarrivalSec,
		Seed:                opt.Seed,
	})
	return cluster.Run(db, cluster.Spec{
		Machines:  opt.Machines,
		Scheme:    opt.Scheme,
		Model:     model,
		Slack:     opt.Slack,
		Jobs:      jobs,
		Placement: opt.Placement,
		Emitter:   opt.Emitter,
	})
}

// ClusterCompareRow is one placement policy's outcome on the shared
// arrival trace of the EXT.EQ comparison.
type ClusterCompareRow struct {
	Policy        string
	EnergySavings float64 // fleet aggregate: 1 - sum(E)/sum(baseline E)
	Violations    int     // jobs missing their slack-adjusted QoS
	MeanWaitSec   float64
	MakespanSec   float64
	// Fairness axis: the spread of per-job savings (1 - E/baselineE).
	MinJobSavings float64
	MaxJobSavings float64
	SpreadSavings float64 // max - min
	StdevSavings  float64
}

// RunClusterComparison (EXT.EQ) runs the identical open-system scenario
// under first-fit, greedy scored and equilibrium placement, and reports
// the three policies side by side on the energy, QoS-violation and
// fairness axes — the equilibrium-versus-greedy comparison the ROADMAP's
// integer-programming-games item asks for.
func RunClusterComparison(db *simdb.DB, opt ClusterOptions) ([]ClusterCompareRow, error) {
	policies := []cluster.Placement{cluster.PlaceFirstFit, cluster.PlaceScored, cluster.PlaceEquilibrium}
	rows := make([]ClusterCompareRow, 0, len(policies))
	for _, p := range policies {
		o := opt
		o.Placement = p
		o.Emitter = nil
		res, err := RunCluster(db, o)
		if err != nil {
			return nil, fmt.Errorf("placement %s: %w", p, err)
		}
		row := ClusterCompareRow{
			Policy:        p.String(),
			EnergySavings: res.EnergySavings,
			Violations:    res.Violations,
			MeanWaitSec:   res.MeanWaitSec,
			MakespanSec:   res.MakespanSec,
		}
		perJob := make([]float64, len(res.Jobs))
		for i, j := range res.Jobs {
			if j.App.BaselineEnergy > 0 {
				perJob[i] = 1 - j.App.Energy/j.App.BaselineEnergy
			}
		}
		row.MinJobSavings = stats.Min(perJob)
		row.MaxJobSavings = stats.Max(perJob)
		row.SpreadSavings = row.MaxJobSavings - row.MinJobSavings
		row.StdevSavings = stats.StdDev(perJob)
		rows = append(rows, row)
	}
	return rows, nil
}

// ClusterCompareTable renders the placement-policy comparison.
func ClusterCompareTable(rows []ClusterCompareRow, title string) *Table {
	t := &Table{
		Title: title,
		Headers: []string{"Placement", "Fleet savings", "QoS violations",
			"Mean wait (s)", "Per-job savings min..max", "Spread", "Stdev"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, pct(r.EnergySavings), r.Violations,
			fmt.Sprintf("%.3f", r.MeanWaitSec),
			fmt.Sprintf("%s..%s", pct(r.MinJobSavings), pct(r.MaxJobSavings)),
			pct(r.SpreadSavings), pct(r.StdevSavings))
	}
	t.AddNote("Same arrival trace under every policy; spread/stdev are the fairness axis " +
		"(how unevenly the manager's savings land across jobs).")
	return t
}

// WriteClusterCompareCSV renders the comparison rows as CSV with stable
// formatting — the byte-diffed golden form (testdata/golden).
//
//qosrma:allow(testonly) the golden cluster-comparison test renders its rows
func WriteClusterCompareCSV(w io.Writer, rows []ClusterCompareRow) error {
	if _, err := fmt.Fprintln(w,
		"placement,fleet_savings,violations,mean_wait_sec,makespan_sec,min_job_savings,max_job_savings,spread,stdev"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%.6f,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			r.Policy, r.EnergySavings, r.Violations, r.MeanWaitSec, r.MakespanSec,
			r.MinJobSavings, r.MaxJobSavings, r.SpreadSavings, r.StdevSavings); err != nil {
			return err
		}
	}
	return nil
}

// ClusterTable renders the fleet summary: one row per machine plus the
// aggregate open-system metrics as footnotes.
func ClusterTable(res *cluster.Result, title string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Machine", "Jobs", "Busy core-sec", "RMA invocations"},
	}
	for i, m := range res.Machines {
		t.AddRow(fmt.Sprintf("machine %d", i), m.Jobs, fmt.Sprintf("%.2f", m.BusyCoreSec), m.Invocations)
	}
	t.AddNote("%d jobs, %s placement, scheme %s: fleet energy savings %s, %d QoS violations.",
		len(res.Jobs), res.Placement, res.Scheme, pct(res.EnergySavings), res.Violations)
	t.AddNote("Queueing: mean wait %.3fs, max wait %.3fs, makespan %.2fs.",
		res.MeanWaitSec, res.MaxWaitSec, res.MakespanSec)
	t.AddNote("Interval audit: %d violations over %d intervals.",
		res.IntervalViolations, res.Intervals)
	if res.Placement == cluster.PlaceEquilibrium.String() {
		t.AddNote("Equilibrium fallbacks: %d arrivals placed by score (%d without a certified equilibrium).",
			res.EquilibriumFallbacks, res.NoEquilibrium)
	}
	return t
}

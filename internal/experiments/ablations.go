package experiments

import (
	"fmt"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/sweep"
	"qosrma/internal/trace"
	"qosrma/internal/workload"
)

// This file contains the extension and ablation studies that go beyond the
// paper's tables: the thesis' future-work feedback proposal (EXT.FB), and
// ablations of the design choices docs/architecture.md describes — coordination
// itself (AB.UNC), ATD set-sampling density (AB.SAMP), reconfiguration
// overheads (AB.SW) and memory-bandwidth pressure (AB.BW).

// AblationRow is one configuration's aggregate outcome.
type AblationRow struct {
	Name       string
	AvgSavings float64
	MaxSavings float64
	QoS        QoSStats
	// IntervalViolProb is the per-interval violation probability.
	IntervalViolProb float64
}

// runRows executes one spec per mix for each named variant and aggregates.
// All variants compile into a single sweep batch (variant-outer,
// mix-inner) so the whole ablation shares one worker-pool dispatch.
func runRows(db *simdb.DB, mixes []workload.Mix, variants []struct {
	name   string
	mutate func(*RunSpec)
}) ([]AblationRow, error) {
	var points []RunSpec
	for _, v := range variants {
		for _, mix := range mixes {
			spec := RunSpec{
				DB: db, Mix: mix, Scheme: core.SchemeCoordDVFSCache,
				Model: core.Model2, BaselineFreqIdx: -1,
			}
			v.mutate(&spec)
			points = append(points, spec)
		}
	}
	res, err := Engine().Run(sweep.Spec{Name: "ablation", DB: db, Points: points})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, v := range variants {
		results := res.Results[i*len(mixes) : (i+1)*len(mixes)]
		var per []float64
		var intervals, viol int
		for _, r := range results {
			per = append(per, r.EnergySavings)
			intervals += r.Intervals
			viol += r.IntervalViolations
		}
		row := AblationRow{
			Name:       v.name,
			AvgSavings: stats.Mean(per),
			MaxSavings: stats.Max(per),
			QoS:        QoSOf(results),
		}
		if intervals > 0 {
			row.IntervalViolProb = float64(viol) / float64(intervals)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFeedbackAblation (EXT.FB) evaluates the thesis' future-work proposal:
// the Paper I scheme (RM2, Model 2) with and without the software
// phase-history MLP table that stands in for the Paper II hardware.
func RunFeedbackAblation(db *simdb.DB, mixes []workload.Mix) ([]AblationRow, error) {
	return runRows(db, mixes, []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"RM2/Model2 (paper)", func(*RunSpec) {}},
		{"RM2/Model2 + phase-history feedback", func(s *RunSpec) { s.Feedback = true }},
		{"RM2/Model3 (MLP-ATD hardware)", func(s *RunSpec) { s.Model = core.Model3 }},
	})
}

// RunUncoordinatedAblation (AB.UNC) compares the coordinated manager with
// the independent-controller design the paper argues against.
func RunUncoordinatedAblation(db *simdb.DB, mixes []workload.Mix) ([]AblationRow, error) {
	return runRows(db, mixes, []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"UCP partitioning + independent DVFS", func(s *RunSpec) { s.Scheme = core.SchemeUCPDVFS }},
		{"coordinated RM2", func(*RunSpec) {}},
	})
}

// RunSwitchCostAblation (AB.SW) scales every reconfiguration overhead to
// show the scheme's sensitivity to switching costs.
func RunSwitchCostAblation(db *simdb.DB, mixes []workload.Mix) ([]AblationRow, error) {
	return runRows(db, mixes, []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"overheads x0.01", func(s *RunSpec) {
			s.Scheme = core.SchemeCoordCoreDVFSCache
			s.Model = core.Model3
			s.SwitchScale = 0.01
		}},
		{"overheads x1 (paper)", func(s *RunSpec) { s.Scheme = core.SchemeCoordCoreDVFSCache; s.Model = core.Model3; s.SwitchScale = 1 }},
		{"overheads x50", func(s *RunSpec) { s.Scheme = core.SchemeCoordCoreDVFSCache; s.Model = core.Model3; s.SwitchScale = 50 }},
	})
}

// RunBandwidthAblation (AB.BW) tightens each core's memory-bandwidth share.
// The resource manager's analytical models do not model bandwidth, so a
// tight share both shrinks the savings and raises the violation risk.
func RunBandwidthAblation(db *simdb.DB, mixes []workload.Mix) ([]AblationRow, error) {
	return runRows(db, mixes, []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"unconstrained bandwidth (paper)", func(*RunSpec) {}},
		{"6 GB/s per core", func(s *RunSpec) { s.PerCoreGBps = 6 }},
		{"3 GB/s per core", func(s *RunSpec) { s.PerCoreGBps = 3 }},
	})
}

// RunSamplingAblation (AB.SAMP) rebuilds the database with different ATD
// set-sampling densities and measures the effect of the noisier profiles on
// the realistic-model results. SampleIn = 1 means every set is shadowed
// (maximum hardware cost), larger values sample fewer sets.
func RunSamplingAblation(sys arch.SystemConfig, numMixes int, sampleIns []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, si := range sampleIns {
		cfg := sys
		cfg.LLC.SampleIn = si
		db, err := simdb.Build(cfg, trace.Suite(), simdb.DefaultBuildOptions())
		if err != nil {
			return nil, err
		}
		profiles, err := workload.CharacterizeAll(db)
		if err != nil {
			return nil, err
		}
		mixes := workload.PaperIMixes(profiles, cfg.NumCores, numMixes)
		sub, err := runRows(db, mixes, []struct {
			name   string
			mutate func(*RunSpec)
		}{
			{fmt.Sprintf("1-in-%d sets sampled", si), func(*RunSpec) {}},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, sub...)
	}
	return rows, nil
}

// AblationTable renders ablation rows.
func AblationTable(rows []AblationRow, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"configuration", "avg savings", "max savings", "app violations", "avg viol", "interval viol prob"}
	for _, r := range rows {
		t.AddRow(r.Name, pct(r.AvgSavings), pct(r.MaxSavings),
			fmt.Sprintf("%d/%d", r.QoS.Violations, r.QoS.Apps),
			fmt.Sprintf("%.1f%%", r.QoS.AvgPct),
			fmt.Sprintf("%.2f%%", r.IntervalViolProb*100))
	}
	return t
}

package experiments

import (
	"fmt"
	"strings"

	"qosrma/internal/core"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/sweep"
	"qosrma/internal/workload"
)

// SavingsResult is the outcome of one scheme over a set of mixes.
type SavingsResult struct {
	Scheme  core.Scheme
	PerMix  []float64 // energy savings per mix
	Results []*rmasim.Result
}

// Avg returns the average savings across mixes.
func (s *SavingsResult) Avg() float64 { return stats.Mean(s.PerMix) }

// Max returns the best savings across mixes.
func (s *SavingsResult) Max() float64 { return stats.Max(s.PerMix) }

// EnergySavingsExperiment reproduces Paper I's headline figures: per-mix
// system energy savings for a set of schemes (P1.F4 with 4-core mixes,
// P1.F8 with 8-core mixes).
type EnergySavingsExperiment struct {
	Mixes   []workload.Mix
	Schemes []*SavingsResult
}

// RunEnergySavings executes the savings comparison over the given mixes as
// a Mixes × Schemes sweep grid.
func RunEnergySavings(db *simdb.DB, mixes []workload.Mix, schemes []core.Scheme, model core.ModelKind, oracle bool) (*EnergySavingsExperiment, error) {
	res, err := Engine().Run(sweep.Spec{
		Name: "energy-savings", DB: db,
		Mixes:            mixes,
		Schemes:          schemes,
		Models:           []core.ModelKind{model},
		Oracle:           []bool{oracle},
		BaselineFreqIdxs: []int{-1},
	})
	if err != nil {
		return nil, err
	}
	exp := &EnergySavingsExperiment{Mixes: mixes}
	for _, scheme := range schemes {
		sr := &SavingsResult{Scheme: scheme}
		for _, r := range res.Select(func(p RunSpec) bool { return p.Scheme == scheme }) {
			sr.PerMix = append(sr.PerMix, r.EnergySavings)
			sr.Results = append(sr.Results, r)
		}
		exp.Schemes = append(exp.Schemes, sr)
	}
	return exp, nil
}

// Table renders the per-mix savings table.
func (e *EnergySavingsExperiment) Table(title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"mix", "pattern", "apps"}
	for _, s := range e.Schemes {
		t.Headers = append(t.Headers, s.Scheme.String())
	}
	for i, mix := range e.Mixes {
		pattern := make([]string, len(mix.ClassPattern))
		for j, c := range mix.ClassPattern {
			pattern[j] = c.String()
		}
		row := []interface{}{mix.Name, strings.Join(pattern, "+"), strings.Join(mix.Apps, ",")}
		for _, s := range e.Schemes {
			row = append(row, pct(s.PerMix[i]))
		}
		t.AddRow(row...)
	}
	avgRow := []interface{}{"avg", "", ""}
	maxRow := []interface{}{"max", "", ""}
	for _, s := range e.Schemes {
		avgRow = append(avgRow, pct(s.Avg()))
		maxRow = append(maxRow, pct(s.Max()))
	}
	t.AddRow(avgRow...)
	t.AddRow(maxRow...)
	return t
}

// QoSStats summarizes per-application QoS violations across a scheme's runs
// (Paper I's violation analysis, P1.QV).
type QoSStats struct {
	Apps       int
	Violations int
	AvgPct     float64 // average violation magnitude (violating apps)
	MaxPct     float64
}

// QoSOf computes violation statistics over the runs of one scheme.
func QoSOf(results []*rmasim.Result) QoSStats {
	var q QoSStats
	var magnitudes []float64
	for _, r := range results {
		for _, a := range r.Apps {
			q.Apps++
			if a.Violated() {
				q.Violations++
				m := (a.ExcessTime - a.AllowedSlack) * 100
				magnitudes = append(magnitudes, m)
			}
		}
	}
	if len(magnitudes) > 0 {
		q.AvgPct = stats.Mean(magnitudes)
		q.MaxPct = stats.Max(magnitudes)
	}
	return q
}

// PerfectVsRealistic reproduces Paper I's model-error analysis (P1.PM +
// P1.QV): the combined scheme with realistic models versus oracle
// ("perfect") models over the same mixes.
type PerfectVsRealistic struct {
	Realistic *SavingsResult
	Perfect   *SavingsResult
	RealQoS   QoSStats
	PerfQoS   QoSStats
}

// RunPerfectVsRealistic executes the comparison. The realistic leg uses the
// given analytical model on sampled last-interval statistics; the perfect
// leg queries the exact profiles of the upcoming interval (oracle
// statistics with the MLP-exact model), which is how the paper realizes
// "perfect models with no prediction error".
func RunPerfectVsRealistic(db *simdb.DB, mixes []workload.Mix, scheme core.Scheme, model core.ModelKind) (*PerfectVsRealistic, error) {
	real, err := RunEnergySavings(db, mixes, []core.Scheme{scheme}, model, false)
	if err != nil {
		return nil, err
	}
	perf, err := RunEnergySavings(db, mixes, []core.Scheme{scheme}, core.Model3, true)
	if err != nil {
		return nil, err
	}
	return &PerfectVsRealistic{
		Realistic: real.Schemes[0],
		Perfect:   perf.Schemes[0],
		RealQoS:   QoSOf(real.Schemes[0].Results),
		PerfQoS:   QoSOf(perf.Schemes[0].Results),
	}, nil
}

// Table renders the comparison.
func (p *PerfectVsRealistic) Table(title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"models", "avg savings", "max savings", "QoS violations", "avg viol", "max viol"}
	t.AddRow("realistic", pct(p.Realistic.Avg()), pct(p.Realistic.Max()),
		fmt.Sprintf("%d/%d", p.RealQoS.Violations, p.RealQoS.Apps),
		fmt.Sprintf("%.1f%%", p.RealQoS.AvgPct), fmt.Sprintf("%.1f%%", p.RealQoS.MaxPct))
	t.AddRow("perfect", pct(p.Perfect.Avg()), pct(p.Perfect.Max()),
		fmt.Sprintf("%d/%d", p.PerfQoS.Violations, p.PerfQoS.Apps),
		fmt.Sprintf("%.1f%%", p.PerfQoS.AvgPct), fmt.Sprintf("%.1f%%", p.PerfQoS.MaxPct))
	return t
}

// RelaxationPoint is one slack level of the QoS-relaxation sweep.
type RelaxationPoint struct {
	Slack   float64
	Avg     float64
	Max     float64
	Results []*rmasim.Result
}

// RunRelaxationSweep reproduces Paper I's relaxed-QoS experiment (P1.RX):
// energy savings as the performance constraint is gradually relaxed
// (perfect models, as in the paper).
func RunRelaxationSweep(db *simdb.DB, mixes []workload.Mix, scheme core.Scheme, slacks []float64) ([]RelaxationPoint, error) {
	res, err := Engine().Run(sweep.Spec{
		Name: "qos-relaxation", DB: db,
		Mixes:            mixes,
		Schemes:          []core.Scheme{scheme},
		Models:           []core.ModelKind{core.Model3},
		Slacks:           slacks,
		Oracle:           []bool{true},
		BaselineFreqIdxs: []int{-1},
	})
	if err != nil {
		return nil, err
	}
	points := make([]RelaxationPoint, 0, len(slacks))
	for _, slack := range slacks {
		results := res.Select(func(p RunSpec) bool { return p.Slack == slack })
		var per []float64
		for _, r := range results {
			per = append(per, r.EnergySavings)
		}
		points = append(points, RelaxationPoint{
			Slack: slack, Avg: stats.Mean(per), Max: stats.Max(per), Results: results,
		})
	}
	return points, nil
}

// RelaxationTable renders the sweep.
func RelaxationTable(points []RelaxationPoint, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"allowed slowdown", "avg savings", "max savings"}
	for _, p := range points {
		t.AddRow(pct(p.Slack), pct(p.Avg), pct(p.Max))
	}
	return t
}

// SubsetRelaxation reproduces Paper I's partial-relaxation scenarios
// (P1.SUB): slack granted only to a subset of the applications in a mix.
type SubsetRelaxation struct {
	Scenario string
	Slack    []float64
	Savings  float64
	Result   *rmasim.Result
}

// RunSubsetRelaxation runs the named subsets over one mix.
func RunSubsetRelaxation(db *simdb.DB, mix workload.Mix, slack float64) ([]SubsetRelaxation, error) {
	n := len(mix.Apps)
	scenarios := []struct {
		name string
		sel  func(i int) bool
	}{
		{"none", func(int) bool { return false }},
		{"first app only", func(i int) bool { return i == 0 }},
		{"first half", func(i int) bool { return i < n/2 }},
		{"second half", func(i int) bool { return i >= n/2 }},
		{"all apps", func(int) bool { return true }},
	}
	var points []RunSpec
	for _, sc := range scenarios {
		per := make([]float64, n)
		for i := range per {
			if sc.sel(i) {
				per[i] = slack
			}
		}
		points = append(points, RunSpec{
			DB: db, Mix: mix, Scheme: core.SchemeCoordDVFSCache, Model: core.Model3,
			Oracle: true, PerCoreSlack: per, BaselineFreqIdx: -1,
		})
	}
	res, err := Engine().Run(sweep.Spec{Name: "subset-relaxation", DB: db, Points: points})
	if err != nil {
		return nil, err
	}
	var out []SubsetRelaxation
	for i, sc := range scenarios {
		out = append(out, SubsetRelaxation{
			Scenario: sc.name, Slack: points[i].PerCoreSlack,
			Savings: res.Results[i].EnergySavings, Result: res.Results[i],
		})
	}
	return out, nil
}

// SubsetTable renders the subset-relaxation scenarios.
func SubsetTable(rows []SubsetRelaxation, mix workload.Mix, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"relaxed subset", "savings"}
	for _, r := range rows {
		t.AddRow(r.Scenario, pct(r.Savings))
	}
	t.AddNote("mix: %s (%s)", mix.Name, strings.Join(mix.Apps, ","))
	return t
}

// BaselineVFPoint is one baseline-frequency sensitivity measurement (P1.VF).
type BaselineVFPoint struct {
	FreqGHz float64
	Avg     float64
	Max     float64
}

// RunBaselineVFSensitivity evaluates how the choice of the baseline VF
// changes the savings of the combined scheme.
func RunBaselineVFSensitivity(db *simdb.DB, mixes []workload.Mix, freqsGHz []float64) ([]BaselineVFPoint, error) {
	idxs := make([]int, len(freqsGHz))
	for i, f := range freqsGHz {
		idxs[i] = db.Sys.DVFS.ClosestIndex(f)
	}
	res, err := Engine().Run(sweep.Spec{
		Name: "baseline-vf", DB: db,
		Mixes:            mixes,
		Schemes:          []core.Scheme{core.SchemeCoordDVFSCache},
		Models:           []core.ModelKind{core.Model3},
		Oracle:           []bool{true},
		BaselineFreqIdxs: idxs,
	})
	if err != nil {
		return nil, err
	}
	// Grid order is mix-outer, frequency-inner; regroup by index arithmetic
	// because two requested frequencies may snap to the same DVFS step.
	var out []BaselineVFPoint
	for k, idx := range idxs {
		var per []float64
		for m := range mixes {
			per = append(per, res.Results[m*len(idxs)+k].EnergySavings)
		}
		out = append(out, BaselineVFPoint{
			FreqGHz: db.Sys.DVFS[idx].FreqGHz,
			Avg:     stats.Mean(per),
			Max:     stats.Max(per),
		})
	}
	return out, nil
}

// BaselineVFTable renders the sensitivity study.
func BaselineVFTable(points []BaselineVFPoint, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"baseline frequency", "avg savings", "max savings"}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.1f GHz", p.FreqGHz), pct(p.Avg), pct(p.Max))
	}
	return t
}

package experiments

import (
	"fmt"
	"math"
	"strings"

	"qosrma/internal/core"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/sweep"
	"qosrma/internal/workload"
)

// Scenario is Paper II's grouping of category mixes by how the core-
// reconfiguration scheme compares with the DVFS+cache scheme.
type Scenario int

const (
	// Scenario1: RM3 considerably improves energy savings over RM2.
	Scenario1 Scenario = iota + 1
	// Scenario2: RM3 and RM2 save comparable energy.
	Scenario2
	// Scenario3: only RM3 saves considerable energy; RM2 is ineffective.
	Scenario3
	// Scenario4: both RM3 and RM2 are ineffective.
	Scenario4
)

// String names the scenario.
func (s Scenario) String() string { return fmt.Sprintf("Scenario%d", int(s)) }

// classifyScenario applies Paper II's outcome taxonomy to a measured pair
// of savings values.
func classifyScenario(rm2, rm3 float64) Scenario {
	const effective = 0.03 // below 3% counts as "not very effective"
	switch {
	case rm3 >= effective && rm2 >= effective && rm3 >= rm2+0.03:
		return Scenario1
	case rm3 >= effective && rm2 >= effective:
		return Scenario2
	case rm3 >= effective:
		return Scenario3
	default:
		return Scenario4
	}
}

// MixOutcome is the measured result for one Paper II category mix.
type MixOutcome struct {
	Mix           workload.Mix
	RM1, RM2, RM3 float64
	Scenario      Scenario
	Results       map[string]*rmasim.Result
}

// ScenarioAnalysis is the full 16-mix systematic analysis (P2.SC) plus the
// per-scenario aggregation (P2.S1-S4).
type ScenarioAnalysis struct {
	Outcomes []MixOutcome
}

// RunScenarioAnalysis executes RM1/RM2/RM3 on every Paper II mix as a
// Mixes × Schemes sweep grid.
func RunScenarioAnalysis(db *simdb.DB, mixes []workload.Mix, model core.ModelKind) (*ScenarioAnalysis, error) {
	res, err := Engine().Run(sweep.Spec{
		Name: "scenario-analysis", DB: db,
		Mixes: mixes,
		Schemes: []core.Scheme{
			core.SchemePartitionOnly,
			core.SchemeCoordDVFSCache,
			core.SchemeCoordCoreDVFSCache,
		},
		Models:           []core.ModelKind{model},
		BaselineFreqIdxs: []int{-1},
	})
	if err != nil {
		return nil, err
	}
	results := res.Results
	an := &ScenarioAnalysis{}
	for i, mix := range mixes {
		rm1 := results[i*3+0]
		rm2 := results[i*3+1]
		rm3 := results[i*3+2]
		an.Outcomes = append(an.Outcomes, MixOutcome{
			Mix:      mix,
			RM1:      rm1.EnergySavings,
			RM2:      rm2.EnergySavings,
			RM3:      rm3.EnergySavings,
			Scenario: classifyScenario(rm2.EnergySavings, rm3.EnergySavings),
			Results: map[string]*rmasim.Result{
				"RM1": rm1, "RM2": rm2, "RM3": rm3,
			},
		})
	}
	return an, nil
}

// ByScenario groups the outcomes.
func (a *ScenarioAnalysis) ByScenario() map[Scenario][]MixOutcome {
	m := make(map[Scenario][]MixOutcome)
	for _, o := range a.Outcomes {
		m[o.Scenario] = append(m[o.Scenario], o)
	}
	return m
}

// ScenarioStats aggregates one scenario's outcomes.
type ScenarioStats struct {
	Scenario       Scenario
	Mixes          int
	RM2Avg, RM2Max float64
	RM3Avg, RM3Max float64
}

// Stats returns per-scenario aggregates in scenario order.
func (a *ScenarioAnalysis) Stats() []ScenarioStats {
	grouped := a.ByScenario()
	var out []ScenarioStats
	for s := Scenario1; s <= Scenario4; s++ {
		outcomes := grouped[s]
		st := ScenarioStats{Scenario: s, Mixes: len(outcomes)}
		if len(outcomes) > 0 {
			var rm2s, rm3s []float64
			for _, o := range outcomes {
				rm2s = append(rm2s, o.RM2)
				rm3s = append(rm3s, o.RM3)
			}
			st.RM2Avg, st.RM2Max = stats.Mean(rm2s), stats.Max(rm2s)
			st.RM3Avg, st.RM3Max = stats.Mean(rm3s), stats.Max(rm3s)
		}
		out = append(out, st)
	}
	return out
}

// Table renders the 16-mix analysis.
func (a *ScenarioAnalysis) Table(title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"mix", "apps", "RM1", "RM2", "RM3", "scenario"}
	for _, o := range a.Outcomes {
		t.AddRow(o.Mix.Name, strings.Join(o.Mix.Apps, ","),
			pct(o.RM1), pct(o.RM2), pct(o.RM3), o.Scenario.String())
	}
	return t
}

// ScenarioTable renders the per-scenario aggregation.
func ScenarioTable(statsList []ScenarioStats, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"scenario", "mixes", "RM2 avg", "RM2 max", "RM3 avg", "RM3 max"}
	for _, s := range statsList {
		t.AddRow(s.Scenario.String(), s.Mixes,
			pct(s.RM2Avg), pct(s.RM2Max), pct(s.RM3Avg), pct(s.RM3Max))
	}
	return t
}

// ModelComparison reproduces Paper II's model study (P2.MD): the RM3 scheme
// driven by Model 1, 2 and 3, comparing energy savings and the per-interval
// QoS-violation statistics.
type ModelComparison struct {
	Model         core.ModelKind
	Savings       float64 // weighted average across mixes
	PerMix        []float64
	ViolationProb float64 // fraction of intervals violating QoS
	ViolationMean float64 // expected violation magnitude (percent)
	ViolationStd  float64
	QoS           QoSStats
}

// RunModelComparison executes the three models over the mixes as a
// Mixes × Models sweep grid.
func RunModelComparison(db *simdb.DB, mixes []workload.Mix, scheme core.Scheme) ([]ModelComparison, error) {
	kinds := []core.ModelKind{core.Model1, core.Model2, core.Model3}
	res, err := Engine().Run(sweep.Spec{
		Name: "model-comparison", DB: db,
		Mixes:            mixes,
		Schemes:          []core.Scheme{scheme},
		Models:           kinds,
		BaselineFreqIdxs: []int{-1},
	})
	if err != nil {
		return nil, err
	}
	var out []ModelComparison
	for _, kind := range kinds {
		results := res.Select(func(p RunSpec) bool { return p.Model == kind })
		mc := ModelComparison{Model: kind}
		var totalIntervals, totalViol int
		for _, r := range results {
			mc.PerMix = append(mc.PerMix, r.EnergySavings)
			totalIntervals += r.Intervals
			totalViol += r.IntervalViolations
		}
		mc.Savings = stats.Mean(mc.PerMix)
		if totalIntervals > 0 {
			mc.ViolationProb = float64(totalViol) / float64(totalIntervals)
		}
		mc.ViolationMean, mc.ViolationStd = pooledViolationStats(results)
		mc.QoS = QoSOf(results)
		out = append(out, mc)
	}
	return out, nil
}

// pooledViolationStats reconstructs the pooled mean/stddev of interval
// violation magnitudes from the per-run summaries.
func pooledViolationStats(results []*rmasim.Result) (mean, std float64) {
	var n int
	var sum, sumSq float64
	for _, r := range results {
		k := r.IntervalViolations
		if k == 0 {
			continue
		}
		m, s := r.ViolationMeanPct, r.ViolationStdPct
		n += k
		sum += m * float64(k)
		sumSq += (s*s + m*m) * float64(k)
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// ModelTable renders the model comparison.
func ModelTable(rows []ModelComparison, title string) *Table {
	t := &Table{Title: title}
	t.Headers = []string{"model", "avg savings", "interval viol prob", "E[viol]", "stddev", "app violations"}
	for _, r := range rows {
		t.AddRow(r.Model.String(), pct(r.Savings),
			fmt.Sprintf("%.2f%%", r.ViolationProb*100),
			fmt.Sprintf("%.2f%%", r.ViolationMean),
			fmt.Sprintf("%.2f%%", r.ViolationStd),
			fmt.Sprintf("%d/%d", r.QoS.Violations, r.QoS.Apps))
	}
	return t
}

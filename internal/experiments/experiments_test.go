package experiments

import (
	"strings"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/sweep"
	"qosrma/internal/workload"
)

func env(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second environment build in -short mode")
	}
	e, err := SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// favorableMixes returns 4-core mixes that pair cache-sensitive apps with
// donors — the regime where the paper says the combined scheme shines.
func favorableMixes(e *Env) []workload.Mix {
	return []workload.Mix{e.Mixes4[4], e.Mixes4[7], e.Mixes4[15], e.Mixes4[18]}
}

func TestEnvShape(t *testing.T) {
	e := env(t)
	if e.DB4.Sys.NumCores != 4 || e.DB8.Sys.NumCores != 8 {
		t.Fatal("database core counts wrong")
	}
	if len(e.Mixes4) != 20 || len(e.Mixes8) != 10 || len(e.MixesII) != 16 {
		t.Fatalf("mix counts: %d/%d/%d", len(e.Mixes4), len(e.Mixes8), len(e.MixesII))
	}
	if len(e.Profiles4) != 20 {
		t.Fatalf("profiles: %d", len(e.Profiles4))
	}
}

func TestP1CoordinatedBeatsPartitioningOnly(t *testing.T) {
	e := env(t)
	schemes := []core.Scheme{core.SchemePartitionOnly, core.SchemeCoordDVFSCache}
	exp, err := RunEnergySavings(e.DB4, favorableMixes(e), schemes, core.Model2, false)
	if err != nil {
		t.Fatal(err)
	}
	rm1, rm2 := exp.Schemes[0], exp.Schemes[1]
	if rm2.Avg() <= rm1.Avg() {
		t.Fatalf("RM2 avg %.3f not above RM1 avg %.3f", rm2.Avg(), rm1.Avg())
	}
	if rm2.Avg() < 0.04 {
		t.Fatalf("RM2 avg %.3f below 4%% on favourable mixes", rm2.Avg())
	}
}

func TestP1DVFSOnlySavesNothing(t *testing.T) {
	e := env(t)
	exp, err := RunEnergySavings(e.DB4, favorableMixes(e),
		[]core.Scheme{core.SchemeDVFSOnly}, core.Model2, false)
	if err != nil {
		t.Fatal(err)
	}
	if avg := exp.Schemes[0].Avg(); avg > 0.005 {
		t.Fatalf("DVFS-only saved %.3f; the paper says it cannot without slack", avg)
	}
}

func TestP1PerfectModelsNoViolations(t *testing.T) {
	e := env(t)
	cmp, err := RunPerfectVsRealistic(e.DB4, favorableMixes(e),
		core.SchemeCoordDVFSCache, core.Model2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PerfQoS.Violations != 0 {
		t.Fatalf("perfect models produced %d violations", cmp.PerfQoS.Violations)
	}
	if cmp.Perfect.Avg() < 0.04 {
		t.Fatalf("perfect avg %.3f too low", cmp.Perfect.Avg())
	}
	if cmp.RealQoS.Apps != 16 {
		t.Fatalf("expected 16 apps audited, got %d", cmp.RealQoS.Apps)
	}
}

func TestP1RelaxationMonotone(t *testing.T) {
	e := env(t)
	mixes := favorableMixes(e)[:2]
	points, err := RunRelaxationSweep(e.DB4, mixes, core.SchemeCoordDVFSCache,
		[]float64{0, 0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Avg < points[i-1].Avg-0.005 {
			t.Fatalf("savings decreased with slack at %v: %.3f -> %.3f",
				points[i].Slack, points[i-1].Avg, points[i].Avg)
		}
	}
	if points[2].Avg < points[0].Avg+0.05 {
		t.Fatalf("40%% slack added only %.3f savings", points[2].Avg-points[0].Avg)
	}
}

func TestP1SubsetRelaxationOrdering(t *testing.T) {
	e := env(t)
	rows, err := RunSubsetRelaxation(e.DB4, e.Mixes4[4], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 scenarios, got %d", len(rows))
	}
	none, all := rows[0], rows[len(rows)-1]
	if none.Scenario != "none" || all.Scenario != "all apps" {
		t.Fatal("scenario ordering changed")
	}
	if all.Savings <= none.Savings {
		t.Fatalf("relaxing all apps (%.3f) not better than none (%.3f)",
			all.Savings, none.Savings)
	}
	for _, r := range rows[1 : len(rows)-1] {
		if r.Savings < none.Savings-0.01 || r.Savings > all.Savings+0.01 {
			t.Fatalf("subset %q savings %.3f outside [none, all] bracket",
				r.Scenario, r.Savings)
		}
	}
}

func TestP1BaselineVFTrend(t *testing.T) {
	e := env(t)
	points, err := RunBaselineVFSensitivity(e.DB4, favorableMixes(e), []float64{1.6, 2.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	// A higher baseline VF leaves more headroom to scale down.
	if points[1].Avg <= points[0].Avg {
		t.Fatalf("savings at 2.4 GHz (%.3f) not above 1.6 GHz (%.3f)",
			points[1].Avg, points[0].Avg)
	}
}

func TestP2ScenarioAnalysis(t *testing.T) {
	e := env(t)
	an, err := RunScenarioAnalysis(e.DB4, e.MixesII, core.Model3)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Outcomes) != 16 {
		t.Fatalf("outcomes: %d", len(an.Outcomes))
	}
	// The paper: RM3 substantially improves savings in 12 of 16 mixes.
	improved := 0
	for _, o := range an.Outcomes {
		if o.RM3 >= o.RM2-1e-9 && o.RM3 >= 0.025 {
			improved++
		}
		// Small losses can occur in homogeneous mixes due to modeling
		// error (the paper reports the same effect); large regressions
		// would indicate a bug.
		if o.RM3 < o.RM2-0.03 {
			t.Fatalf("%s: RM3 (%.3f) clearly worse than RM2 (%.3f)",
				o.Mix.Name, o.RM3, o.RM2)
		}
	}
	if improved < 10 {
		t.Fatalf("RM3 effective in only %d/16 mixes", improved)
	}
	// The all-insensitive mix must be Scenario 4.
	for _, o := range an.Outcomes {
		if o.Mix.Name == "CI+PS/CI+PS" && o.Scenario != Scenario4 {
			t.Fatalf("all-CI+PS mix classified %v", o.Scenario)
		}
	}
	st := an.Stats()
	if len(st) != 4 {
		t.Fatalf("stats rows: %d", len(st))
	}
	if st[0].RM3Avg <= st[3].RM3Avg {
		t.Fatal("Scenario1 RM3 savings not above Scenario4")
	}
}

func TestP2ModelOrdering(t *testing.T) {
	e := env(t)
	rows, err := RunModelComparison(e.DB4, favorableMixes(e), core.SchemeCoordCoreDVFSCache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	m1, m2, m3 := rows[0], rows[1], rows[2]
	// Paper II's central claim: better models => fewer interval violations.
	if !(m3.ViolationProb < m2.ViolationProb && m2.ViolationProb <= m1.ViolationProb+0.02) {
		t.Fatalf("violation probabilities not ordered: M1 %.3f M2 %.3f M3 %.3f",
			m1.ViolationProb, m2.ViolationProb, m3.ViolationProb)
	}
	if m3.ViolationProb > 0.5*m2.ViolationProb {
		t.Fatalf("Model3 violation probability %.3f not substantially below Model2 %.3f",
			m3.ViolationProb, m2.ViolationProb)
	}
}

func TestOverheadProbe(t *testing.T) {
	e := env(t)
	probe, err := NewOverheadProbe(e.DB4, core.SchemeCoordCoreDVFSCache, core.Model3)
	if err != nil {
		t.Fatal(err)
	}
	before := probe.Mgr.Invocations
	probe.Invoke()
	if probe.Mgr.Invocations != before+1 {
		t.Fatal("Invoke did not reach the manager")
	}
	iv, err := IntervalWallTime(e.DB4)
	if err != nil {
		t.Fatal(err)
	}
	if iv <= 0 {
		t.Fatal("degenerate interval wall time")
	}
}

func TestExecuteBaselineOverride(t *testing.T) {
	e := env(t)
	spec := RunSpec{
		DB: e.DB4, Mix: e.Mixes4[7], Scheme: core.SchemeCoordDVFSCache,
		Model: core.Model3, Oracle: true,
		BaselineFreqIdx: e.DB4.Sys.DVFS.ClosestIndex(2.4),
	}
	res, err := sweep.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySavings <= 0 {
		t.Fatalf("no savings with relaxed baseline: %.3f", res.EnergySavings)
	}
	// The shared database must not have been mutated.
	if e.DB4.Sys.BaselineFreqIdx != e.DB4.Sys.DVFS.ClosestIndex(2.0) {
		t.Fatal("Execute mutated the shared database")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("longer", "v")
	tab.AddNote("note %d", 7)
	s := tab.String()
	for _, want := range []string{"## T", "| a", "| bb", "1.50", "longer", "note 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		5e-9:  "5 ns",
		2e-6:  "2.0 us",
		3e-3:  "3.00 ms",
		0.005: "5.00 ms",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestQoSOfEmpty(t *testing.T) {
	q := QoSOf(nil)
	if q.Apps != 0 || q.Violations != 0 || q.AvgPct != 0 {
		t.Fatalf("empty QoS stats: %+v", q)
	}
}

func TestExecuteAllAggregatesErrors(t *testing.T) {
	e := env(t)
	good := RunSpec{
		DB: e.DB4, Mix: e.Mixes4[4], Scheme: core.SchemeCoordDVFSCache,
		Model: core.Model2, BaselineFreqIdx: -1,
	}
	badApp := good
	badApp.Mix = workload.Mix{Name: "badapp", Apps: []string{"nosuchbench", "mcf", "lbm", "milc"}}
	badCount := good
	badCount.Mix = workload.Mix{Name: "badcount", Apps: []string{"mcf"}}
	_, err := ExecuteAll([]RunSpec{good, badApp, badCount})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	// Every failing point must survive aggregation, not just the first.
	for _, want := range []string{"badapp", "badcount"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q is missing point %s", err, want)
		}
	}
	// The healthy point stays usable afterwards.
	if _, err := ExecuteAll([]RunSpec{good}); err != nil {
		t.Fatalf("healthy point failed after bad batch: %v", err)
	}
}

func TestSweepCacheAvoidsResimulation(t *testing.T) {
	e := env(t)
	mixes := favorableMixes(e)[:2]
	schemes := []core.Scheme{core.SchemePartitionOnly, core.SchemeCoordDVFSCache}

	first, err := RunEnergySavings(e.DB4, mixes, schemes, core.Model2, false)
	if err != nil {
		t.Fatal(err)
	}
	_, missesBefore := Engine().Cache().Stats()
	second, err := RunEnergySavings(e.DB4, mixes, schemes, core.Model2, false)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfter := Engine().Cache().Stats()
	if missesAfter != missesBefore {
		t.Fatalf("cached re-run simulated %d new points, want 0", missesAfter-missesBefore)
	}
	for i := range first.Schemes {
		for j := range first.Schemes[i].Results {
			if first.Schemes[i].Results[j] != second.Schemes[i].Results[j] {
				t.Fatalf("scheme %d mix %d: cached result differs", i, j)
			}
		}
	}
}

package core

import (
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

func feedbackStats(sys arch.SystemConfig, ways int, mlp float64) *IntervalStats {
	st := fakeStats(sys, 2.2, 18, missProfile(sys.LLC.Assoc, 2e6, 3e5, 10), mlp)
	st.Setting.Ways = ways
	st.TotalMisses = st.ATDMisses[ways]
	st.LeadingMisses = st.TotalMisses / mlp
	return st
}

func TestFeedbackLearnsAndRecalls(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	tbl := NewFeedbackTable(sys.LLC.Assoc)
	st := feedbackStats(sys, 4, 2.5)
	if _, ok := tbl.MLPFor(st, 4); ok {
		t.Fatal("empty table returned a value")
	}
	tbl.Observe(st)
	got, ok := tbl.MLPFor(st, 4)
	if !ok || got != 2.5 {
		t.Fatalf("MLPFor = %v, %v; want 2.5, true", got, ok)
	}
	if _, ok := tbl.MLPFor(st, 10); ok {
		t.Fatal("unvisited way count returned a value")
	}
}

func TestFeedbackSignatureAllocationInvariant(t *testing.T) {
	// The same phase observed while running at a different allocation must
	// map to the same key, so values learned at one allocation are found
	// from statistics gathered at another.
	sys := arch.DefaultSystemConfig(4)
	tbl := NewFeedbackTable(sys.LLC.Assoc)
	at4 := feedbackStats(sys, 4, 2.5)
	at10 := feedbackStats(sys, 10, 1.6)
	tbl.Observe(at10) // learned while running at 10 ways
	got, ok := tbl.MLPFor(at4, 10)
	if !ok {
		t.Fatal("observation at 10 ways not visible from 4-way statistics")
	}
	if got != 1.6 {
		t.Fatalf("recalled MLP %v, want 1.6", got)
	}
	if len(tbl.mlp) != 1 {
		t.Fatalf("the two observations created %d phases, want 1", len(tbl.mlp))
	}
}

func TestFeedbackEWMA(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	tbl := NewFeedbackTable(sys.LLC.Assoc)
	tbl.Observe(feedbackStats(sys, 4, 2.0))
	tbl.Observe(feedbackStats(sys, 4, 3.0))
	got, _ := tbl.MLPFor(feedbackStats(sys, 4, 2.0), 4)
	want := (1-fbAlpha)*2.0 + fbAlpha*3.0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("EWMA = %v, want %v", got, want)
	}
	if tbl.Observations() != 2 {
		t.Fatalf("observations = %d", tbl.Observations())
	}
}

func TestFeedbackDistinguishesPhases(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	tbl := NewFeedbackTable(sys.LLC.Assoc)
	heavy := feedbackStats(sys, 4, 2.5)
	light := fakeStats(sys, 4.0, 1, missProfile(sys.LLC.Assoc, 5e4, 4e4, 3), 1.2)
	tbl.Observe(heavy)
	tbl.Observe(light)
	if len(tbl.mlp) != 2 {
		t.Fatalf("phases = %d, want 2", len(tbl.mlp))
	}
	if _, ok := tbl.MLPFor(light, 4); !ok {
		t.Fatal("light phase not recallable")
	}
}

func TestFeedbackIgnoresDegenerateStats(t *testing.T) {
	tbl := NewFeedbackTable(16)
	tbl.Observe(&IntervalStats{}) // zero instructions
	if tbl.Observations() != 0 {
		t.Fatal("degenerate stats recorded")
	}
}

func TestPredictorUsesFeedback(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	tbl := NewFeedbackTable(sys.LLC.Assoc)
	st := feedbackStats(sys, 4, 2.5)
	// Teach the table that at 12 ways the MLP collapses to 1.2.
	learned := feedbackStats(sys, 12, 1.2)
	tbl.Observe(learned)

	p := &Predictor{Sys: &sys, Power: power.DefaultParams(sys), Kind: Model2}
	s := sys.BaselineSetting()
	s.Ways = 12
	without := p.Cycles(st, s)
	p.Feedback = tbl
	with := p.Cycles(st, s)
	if with <= without {
		t.Fatalf("feedback (true MLP 1.2 < assumed 2.5) must predict more cycles: %v vs %v",
			with, without)
	}
}

func TestManagerFeedbackWiring(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys: sys, Power: power.DefaultParams(sys),
		Scheme: SchemeCoordDVFSCache, Model: Model2, Feedback: true,
	})
	if m.feedback[0] == nil {
		t.Fatal("feedback tables not created")
	}
	st := statsForCore(sys, 0, true)
	m.Decide(0, st)
	if m.feedback[0].Observations() != 1 {
		t.Fatal("Decide did not observe the interval")
	}
	if m.pred.Feedback != nil {
		t.Fatal("predictor feedback pointer leaked past Decide")
	}
	m2 := NewManager(Config{Sys: sys, Power: power.DefaultParams(sys)})
	if m2.feedback != nil {
		t.Fatal("feedback table present when disabled")
	}
}

func TestUncoordinatedSchemeProducesValidSettings(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys: sys, Power: power.DefaultParams(sys),
		Scheme: SchemeUCPDVFS, Model: Model2,
	})
	var settings []arch.Setting
	var ok bool
	for core := 0; core < 4; core++ {
		settings, ok = m.Decide(core, statsForCore(sys, core, core%2 == 0))
	}
	if !ok {
		t.Fatal("no decision after all cores reported")
	}
	sum := 0
	for _, s := range settings {
		if s.Ways < 1 {
			t.Fatalf("core got %d ways", s.Ways)
		}
		if s.Size != sys.BaselineSize {
			t.Fatal("uncoordinated scheme must not resize cores")
		}
		sum += s.Ways
	}
	if sum != sys.LLC.Assoc {
		t.Fatalf("ways sum %d", sum)
	}
	if SchemeUCPDVFS.String() != "UCP+DVFS-uncoord" {
		t.Fatal("scheme name wrong")
	}
}

func TestUncoordinatedWaitsForAllCores(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys: sys, Power: power.DefaultParams(sys),
		Scheme: SchemeUCPDVFS, Model: Model2,
	})
	if _, ok := m.Decide(0, statsForCore(sys, 0, true)); ok {
		t.Fatal("decided before warm-up completed")
	}
}

// Observations returns the total number of recorded observations.
func (t *FeedbackTable) Observations() int {
	total := 0
	for _, cells := range t.mlp {
		for _, c := range cells {
			total += c.n
		}
	}
	return total
}

package core

import (
	"math"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// fakeStats builds self-consistent interval statistics for a synthetic
// phase running at the baseline setting: the Cycles field matches what the
// interval timing model would produce given the hidden ilpIPC.
func fakeStats(sys arch.SystemConfig, ilpIPC, apki float64, missProfile []float64, mlp float64) *IntervalStats {
	const instr = 100e6
	base := sys.BaselineSetting()
	cur := sys.Cores[base.Size]
	f := sys.DVFS[base.FreqIdx].FreqGHz

	branchMisses := 4.0 * instr / 1000
	misses := missProfile[base.Ways]
	leading := misses / mlp
	eff := math.Min(ilpIPC, float64(cur.Width))
	cycles := instr/eff + branchMisses*float64(cur.BranchPenal) +
		leading*sys.Mem.LatencyNs*f

	// Leading profiles per size: bigger cores overlap more.
	leadProfile := make([][]float64, arch.NumCoreSizes)
	mlpBySize := []float64{math.Max(1, mlp*0.7), mlp, mlp * 1.3}
	for c := range leadProfile {
		leadProfile[c] = make([]float64, len(missProfile))
		for w := range missProfile {
			leadProfile[c][w] = missProfile[w] / mlpBySize[c]
		}
	}
	return &IntervalStats{
		Core:          0,
		Setting:       base,
		Instr:         instr,
		Cycles:        cycles,
		LLCAccesses:   apki * instr / 1000,
		BranchMisses:  branchMisses,
		TotalMisses:   misses,
		LeadingMisses: leading,
		ATDMisses:     append([]float64(nil), missProfile...),
		ATDLeading:    leadProfile,
	}
}

// missProfile builds a decreasing miss curve with a knee.
func missProfile(assoc int, total, floor float64, knee int) []float64 {
	p := make([]float64, assoc+1)
	for w := 0; w <= assoc; w++ {
		if w >= knee {
			p[w] = floor
			continue
		}
		frac := float64(w) / float64(knee)
		p[w] = total - (total-floor)*frac
	}
	return p
}

func testPredictor(sys arch.SystemConfig, kind ModelKind) *Predictor {
	return &Predictor{Sys: &sys, Power: power.DefaultParams(sys), Kind: kind}
}

func TestEffIPCRecoversUnsaturatedILP(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 10, missProfile(16, 1.2e6, 2e5, 10), 2)
	got := p.effIPC(st, sys.Cores[arch.SizeMedium])
	if math.Abs(got-2.5) > 0.01 {
		t.Fatalf("effIPC = %v, want ~2.5", got)
	}
}

func TestEffIPCSaturatedAssumesWiderHelps(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 6.0, 2, missProfile(16, 3e5, 1e5, 8), 2) // width-bound on medium (width 4)
	got := p.effIPC(st, sys.Cores[arch.SizeLarge])
	if got <= 4 || got > 6 {
		t.Fatalf("effIPC on large = %v, want in (4, 6] (modest assumed headroom)", got)
	}
	if got := p.effIPC(st, sys.Cores[arch.SizeSmall]); got != 2 {
		t.Fatalf("effIPC on small = %v, want 2 (width bound)", got)
	}
}

func TestOracleStatsUseTrueILP(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model3)
	st := fakeStats(sys, 3.0, 10, missProfile(16, 1e6, 2e5, 10), 2)
	st.IlpIPC = 3.0
	if got := p.effIPC(st, sys.Cores[arch.SizeLarge]); got != 3.0 {
		t.Fatalf("oracle effIPC = %v, want 3.0", got)
	}
}

func TestModelOrderingOnStalls(t *testing.T) {
	// Model1 (no overlap) must predict the most cycles; Model3 with a
	// large core (more MLP) the fewest.
	sys := arch.DefaultSystemConfig(4)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 4e5, 10), 2.5)
	s := sys.BaselineSetting()
	c1 := testPredictor(sys, Model1).Cycles(st, s)
	c2 := testPredictor(sys, Model2).Cycles(st, s)
	c3 := testPredictor(sys, Model3).Cycles(st, s)
	if !(c1 > c2) {
		t.Fatalf("Model1 cycles %v not above Model2 %v", c1, c2)
	}
	// At the measurement setting Model2 and Model3 agree by construction.
	if math.Abs(c2-c3)/c2 > 0.01 {
		t.Fatalf("Model2 %v vs Model3 %v at measurement point", c2, c3)
	}
}

func TestModel3SeesMLPGainOnLargeCore(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	st := fakeStats(sys, 2.0, 15, missProfile(16, 2e6, 4e5, 10), 2.0)
	s := sys.BaselineSetting()
	s.Size = arch.SizeLarge
	c2 := testPredictor(sys, Model2).Cycles(st, s)
	c3 := testPredictor(sys, Model3).Cycles(st, s)
	if !(c3 < c2) {
		t.Fatalf("Model3 (%v) should predict fewer cycles than Model2 (%v) on large core", c3, c2)
	}
}

func TestModel3FallsBackWithoutHardware(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	st := fakeStats(sys, 2.0, 15, missProfile(16, 2e6, 4e5, 10), 2.0)
	st.ATDLeading = nil
	s := sys.BaselineSetting()
	c2 := testPredictor(sys, Model2).Cycles(st, s)
	c3 := testPredictor(sys, Model3).Cycles(st, s)
	if c2 != c3 {
		t.Fatalf("Model3 without MLP-ATD should equal Model2: %v vs %v", c3, c2)
	}
}

func TestPredictedIPSMonotoneInWays(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 2e5, 12), 2)
	s := sys.BaselineSetting()
	prev := 0.0
	for w := 1; w <= 13; w++ {
		s.Ways = w
		ips := p.IPS(st, s)
		if ips < prev-1e-6 {
			t.Fatalf("IPS decreased at w=%d", w)
		}
		prev = ips
	}
}

func TestQoSTargetSlack(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 10, missProfile(16, 1e6, 2e5, 10), 2)
	base := p.QoSTargetIPS(st, 0)
	relaxed := p.QoSTargetIPS(st, 0.25)
	if math.Abs(base/relaxed-1.25) > 1e-9 {
		t.Fatalf("slack not applied: %v vs %v", base, relaxed)
	}
}

func TestQoSTargetEqualsBaselinePrediction(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 10, missProfile(16, 1e6, 2e5, 10), 2)
	if p.QoSTargetIPS(st, 0) != p.IPS(st, sys.BaselineSetting()) {
		t.Fatal("QoS target must equal predicted baseline IPS")
	}
}

func TestEPIComponentsRespondToSetting(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 2e5, 12), 2)
	s := sys.BaselineSetting()
	epiBase := p.EPI(st, s)
	// Lower frequency cuts dynamic energy per instruction.
	s.FreqIdx = 2
	epiLow := p.EPI(st, s)
	if epiLow >= epiBase {
		t.Fatalf("lower frequency did not reduce EPI: %v vs %v", epiLow, epiBase)
	}
	// More ways cut DRAM energy for this miss profile.
	s = sys.BaselineSetting()
	s.Ways = 12
	epiWays := p.EPI(st, s)
	if epiWays >= epiBase {
		t.Fatalf("more ways did not reduce EPI: %v vs %v", epiWays, epiBase)
	}
}

func TestStatsCloneIsDeep(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	st := fakeStats(sys, 2.5, 10, missProfile(16, 1e6, 2e5, 10), 2)
	c := st.Clone()
	c.ATDMisses[3] = -1
	c.ATDLeading[0][3] = -1
	if st.ATDMisses[3] == -1 || st.ATDLeading[0][3] == -1 {
		t.Fatal("Clone shares slices")
	}
}

func TestMLPFloorsAtOne(t *testing.T) {
	st := &IntervalStats{TotalMisses: 10, LeadingMisses: 100}
	if st.MLP() != 1 {
		t.Fatalf("MLP = %v, want floor 1", st.MLP())
	}
	st.LeadingMisses = 0
	if st.MLP() != 1 {
		t.Fatal("MLP with zero leading should be 1")
	}
}

// Clone returns a deep copy of the statistics.
func (s *IntervalStats) Clone() *IntervalStats {
	c := *s
	c.ATDMisses = append([]float64(nil), s.ATDMisses...)
	if s.ATDLeading != nil {
		c.ATDLeading = make([][]float64, len(s.ATDLeading))
		for i := range s.ATDLeading {
			c.ATDLeading[i] = append([]float64(nil), s.ATDLeading[i]...)
		}
	}
	return &c
}

package power

import (
	"testing"
	"testing/quick"

	"qosrma/internal/arch"
)

func testActivity() Activity {
	sys := arch.DefaultSystemConfig(4)
	return Activity{
		Instr:       100e6,
		Seconds:     0.05,
		LLCAccesses: 1e6,
		DRAMAcc:     4e5,
		Core:        sys.Cores[arch.SizeMedium],
		Op:          sys.DVFS[sys.BaselineFreqIdx],
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	b := Energy(p, testActivity())
	if b.CoreDyn <= 0 || b.CoreStat <= 0 || b.LLC <= 0 || b.DRAM <= 0 || b.Uncore <= 0 {
		t.Fatalf("non-positive component: %+v", b)
	}
	sum := b.CoreDyn + b.CoreStat + b.LLC + b.DRAM + b.Uncore
	if b.Total() != sum {
		t.Fatal("total mismatch")
	}
}

func TestDynamicEnergyQuadraticInVoltage(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	a := testActivity()
	a.Op.VoltV = 1.0
	e1 := Energy(p, a).CoreDyn
	a.Op.VoltV = 2.0
	e2 := Energy(p, a).CoreDyn
	if ratio := e2 / e1; ratio < 3.999 || ratio > 4.001 {
		t.Fatalf("dynamic energy ratio %v, want 4 for 2x voltage", ratio)
	}
}

func TestStaticEnergyScalesWithTime(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	a := testActivity()
	e1 := Energy(p, a).CoreStat
	a.Seconds *= 3
	e2 := Energy(p, a).CoreStat
	if ratio := e2 / e1; ratio < 2.999 || ratio > 3.001 {
		t.Fatalf("static energy ratio %v, want 3", ratio)
	}
}

func TestCoreSizeAffectsBothComponents(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := DefaultParams(sys)
	a := testActivity()
	a.Core = sys.Cores[arch.SizeSmall]
	small := Energy(p, a)
	a.Core = sys.Cores[arch.SizeLarge]
	large := Energy(p, a)
	if large.CoreDyn <= small.CoreDyn || large.CoreStat <= small.CoreStat {
		t.Fatal("larger core must cost more energy at equal work and time")
	}
}

func TestDRAMEnergyProportionalToMisses(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	a := testActivity()
	e1 := Energy(p, a).DRAM
	a.DRAMAcc *= 2
	e2 := Energy(p, a).DRAM
	if e2 != 2*e1 {
		t.Fatalf("DRAM energy not linear: %v vs %v", e1, e2)
	}
}

func TestEPIAndWatts(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	a := testActivity()
	e := Energy(p, a).Total()
	if got := EPI(p, a); got != e/a.Instr {
		t.Fatalf("EPI = %v", got)
	}
	a.Instr = 0
	if EPI(p, a) != 0 {
		t.Fatal("EPI with zero instructions should be 0")
	}
}

func TestBaselinePowerPlausible(t *testing.T) {
	// The modeled per-core power at the baseline operating point should be
	// in the low single-digit watts — the regime of the paper's system.
	p := DefaultParams(arch.DefaultSystemConfig(4))
	a := testActivity()
	w := Energy(p, a).Total() / a.Seconds
	if w < 1 || w > 10 {
		t.Fatalf("baseline per-core power %v W, want 1..10 W", w)
	}
}

func TestQuickEnergyNonNegativeAndMonotoneInVolt(t *testing.T) {
	p := DefaultParams(arch.DefaultSystemConfig(4))
	f := func(v1, v2 uint8) bool {
		a := testActivity()
		lo := 0.5 + float64(v1%100)/100
		hi := 0.5 + float64(v2%100)/100
		if lo > hi {
			lo, hi = hi, lo
		}
		a.Op.VoltV = lo
		e1 := Energy(p, a).Total()
		a.Op.VoltV = hi
		e2 := Energy(p, a).Total()
		return e1 >= 0 && e2 >= e1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package timing

import (
	"testing"
	"testing/quick"

	"qosrma/internal/arch"
)

func mediumCore() arch.CoreParams { return arch.DefaultCoreParams()[arch.SizeMedium] }

func baseInputs() Inputs {
	return Inputs{
		Instr:         100e6,
		IlpIPC:        2.5,
		BranchMPKI:    4,
		LeadingMisses: 300_000,
		FreqGHz:       2.0,
		MemLatNs:      75,
		Core:          mediumCore(),
	}
}

func TestCyclesComponentsPositive(t *testing.T) {
	b := Cycles(baseInputs())
	if b.BaseCycles <= 0 || b.BranchCycles <= 0 || b.MemCycles <= 0 {
		t.Fatalf("non-positive component: %+v", b)
	}
	if b.Total() != b.BaseCycles+b.BranchCycles+b.MemCycles {
		t.Fatal("total mismatch")
	}
}

func TestWidthBoundsIPC(t *testing.T) {
	in := baseInputs()
	in.IlpIPC = 10
	in.LeadingMisses = 0
	in.BranchMPKI = 0
	b := Cycles(in)
	wantMin := in.Instr / float64(in.Core.Width)
	if b.BaseCycles < wantMin-1 {
		t.Fatalf("base cycles %v below width bound %v", b.BaseCycles, wantMin)
	}
}

func TestMemoryStallsScaleWithFrequency(t *testing.T) {
	in := baseInputs()
	slow := Cycles(in)
	in.FreqGHz = 3.0
	fast := Cycles(in)
	if fast.MemCycles <= slow.MemCycles {
		t.Fatal("memory cycles must grow with frequency (fixed ns latency)")
	}
	if fast.BaseCycles != slow.BaseCycles {
		t.Fatal("base cycles must be frequency-independent")
	}
}

func TestIPSSaturatesForMemoryBound(t *testing.T) {
	// For a heavily memory-bound window, doubling frequency must yield far
	// less than double the performance.
	in := baseInputs()
	in.LeadingMisses = 3e6 // very memory bound
	ipsLow := IPS(in)
	in.FreqGHz = 3.2
	ipsHigh := IPS(in)
	gain := ipsHigh / ipsLow
	if gain > 1.25 {
		t.Fatalf("memory-bound speedup %v, want < 1.25 for 1.6x frequency", gain)
	}
}

func TestIPSNearLinearForComputeBound(t *testing.T) {
	in := baseInputs()
	in.LeadingMisses = 0
	ipsLow := IPS(in)
	in.FreqGHz = 4.0
	ipsHigh := IPS(in)
	if gain := ipsHigh / ipsLow; gain < 1.99 || gain > 2.01 {
		t.Fatalf("compute-bound speedup %v, want ~2.0", gain)
	}
}

func TestLargerCoreFasterWhenILPAvailable(t *testing.T) {
	cores := arch.DefaultCoreParams()
	in := baseInputs()
	in.IlpIPC = 5.5
	in.Core = cores[arch.SizeSmall]
	small := IPS(in)
	in.Core = cores[arch.SizeLarge]
	large := IPS(in)
	if large <= small {
		t.Fatalf("large core not faster: %v vs %v", large, small)
	}
}

func TestTPIInvertsIPS(t *testing.T) {
	in := baseInputs()
	if got := TPI(in) * IPS(in); got < 0.999 || got > 1.001 {
		t.Fatalf("TPI*IPS = %v", got)
	}
}

func TestSeconds(t *testing.T) {
	if s := Seconds(2e9, 2.0); s != 1.0 {
		t.Fatalf("Seconds = %v, want 1", s)
	}
}

func TestDegenerateInputsSafe(t *testing.T) {
	in := baseInputs()
	in.IlpIPC = 0
	if c := Cycles(in).Total(); c <= 0 {
		t.Fatal("zero IlpIPC must still produce positive cycles")
	}
	in = baseInputs()
	in.Instr = 0
	if ips := IPS(in); ips != 0 {
		// zero instructions but fixed stalls: IPS 0 is correct
		t.Fatalf("IPS with zero instructions = %v", ips)
	}
}

func TestQuickCyclesMonotoneInMisses(t *testing.T) {
	f := func(m1, m2 uint32) bool {
		a, b := float64(m1%10_000_000), float64(m2%10_000_000)
		if a > b {
			a, b = b, a
		}
		in := baseInputs()
		in.LeadingMisses = a
		ca := Cycles(in).Total()
		in.LeadingMisses = b
		cb := Cycles(in).Total()
		return cb >= ca
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIPSMonotoneInFrequency(t *testing.T) {
	f := func(f1, f2 uint8) bool {
		a := 0.8 + float64(f1%25)*0.1
		b := 0.8 + float64(f2%25)*0.1
		if a > b {
			a, b = b, a
		}
		in := baseInputs()
		in.FreqGHz = a
		ia := IPS(in)
		in.FreqGHz = b
		ib := IPS(in)
		return ib >= ia-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TPI returns average time per instruction in seconds (the metric the
// co-phase RMA simulator schedules with).
func TPI(in Inputs) float64 {
	ips := IPS(in)
	if ips <= 0 {
		return 0
	}
	return 1 / ips
}

// IPS returns instructions per second for the window.
func IPS(in Inputs) float64 {
	c := Cycles(in).Total()
	if c <= 0 {
		return 0
	}
	return in.Instr / Seconds(c, in.FreqGHz)
}

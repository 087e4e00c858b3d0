// Package power implements the McPAT-analogue power and energy model. It
// reproduces the structure that matters to the paper's trade-offs:
//
//   - core dynamic energy per instruction scales with switching capacitance
//     (a function of the active core size) and quadratically with voltage;
//   - core leakage power scales with active core size and voltage, and its
//     per-instruction share grows as the core slows down;
//   - LLC accesses and DRAM accesses cost fixed energy each, so partitioning
//     that removes misses saves DRAM energy directly;
//   - a fixed uncore/background power per core is charged by wall time,
//     penalizing any slowdown.
package power

import "qosrma/internal/arch"

// Params are the technology coefficients of the model.
type Params struct {
	// DynEPI1V is the dynamic energy per instruction of the medium core at
	// 1.0 V, in joules.
	DynEPI1V float64
	// LeakWPerV is the medium core's leakage power per volt, in watts.
	LeakWPerV float64
	// LLCAccessJ is the energy per LLC access.
	LLCAccessJ float64
	// DRAMAccessJ is the energy per DRAM access (one LLC miss).
	DRAMAccessJ float64
	// UncoreW is background power charged per core by wall time (memory
	// background, NoC, IO shares).
	UncoreW float64
}

// DefaultParams returns the calibration used throughout the evaluation.
func DefaultParams(sys arch.SystemConfig) Params {
	return Params{
		DynEPI1V:    0.70e-9,
		LeakWPerV:   0.55,
		LLCAccessJ:  0.8e-9,
		DRAMAccessJ: sys.Mem.EnergyPerAcc,
		UncoreW:     sys.UncoreWPerCore + sys.Mem.BackgroundW/float64(sys.NumCores),
	}
}

// Activity describes what one core did during a window.
type Activity struct {
	Instr       float64 // instructions executed
	Seconds     float64 // wall time of the window
	LLCAccesses float64
	DRAMAcc     float64 // LLC misses (DRAM accesses)
	Core        arch.CoreParams
	Op          arch.OperatingPoint
}

// Breakdown is the energy decomposition of a window, in joules.
type Breakdown struct {
	CoreDyn  float64
	CoreStat float64
	LLC      float64
	DRAM     float64
	Uncore   float64
}

// Total returns total energy in joules.
func (b Breakdown) Total() float64 {
	return b.CoreDyn + b.CoreStat + b.LLC + b.DRAM + b.Uncore
}

// Energy evaluates the model for one window.
func Energy(p Params, a Activity) Breakdown {
	v := a.Op.VoltV
	return Breakdown{
		CoreDyn:  p.DynEPI1V * a.Core.CapFactor * v * v * a.Instr,
		CoreStat: p.LeakWPerV * a.Core.LeakFactor * v * a.Seconds,
		LLC:      p.LLCAccessJ * a.LLCAccesses,
		DRAM:     p.DRAMAccessJ * a.DRAMAcc,
		Uncore:   p.UncoreW * a.Seconds,
	}
}

// EPI returns the average energy per instruction for the window, in joules.
func EPI(p Params, a Activity) float64 {
	if a.Instr <= 0 {
		return 0
	}
	return Energy(p, a).Total() / a.Instr
}

// Package timing implements the mechanistic interval-analysis core timing
// model that replaces the Sniper detailed simulator in the paper's
// methodology. Interval analysis (Eyerman, Eeckhout et al.; the model family
// Sniper itself is built on) decomposes execution cycles into a base
// component bounded by dispatch width and program ILP, a branch-misprediction
// component, and a memory component in which only *leading* (non-overlapped)
// LLC misses contribute full memory latency.
package timing

import "qosrma/internal/arch"

// Inputs describes one instruction window executed on one core setting.
type Inputs struct {
	Instr         float64 // instructions in the window
	IlpIPC        float64 // dependency-limited IPC of the program phase
	BranchMPKI    float64 // branch mispredictions per kilo-instruction
	LeadingMisses float64 // non-overlapped LLC misses in the window
	FreqGHz       float64 // core frequency
	MemLatNs      float64 // average leading-miss latency in nanoseconds
	Core          arch.CoreParams
}

// Breakdown is the cycle decomposition of a window.
type Breakdown struct {
	BaseCycles   float64 // dispatch/ILP-bound execution
	BranchCycles float64 // branch misprediction penalties
	MemCycles    float64 // leading-miss memory stalls
}

// Total returns the total cycle count.
func (b Breakdown) Total() float64 { return b.BaseCycles + b.BranchCycles + b.MemCycles }

// Cycles evaluates the interval model.
func Cycles(in Inputs) Breakdown {
	effIPC := in.IlpIPC
	if w := float64(in.Core.Width); effIPC > w {
		effIPC = w
	}
	if effIPC <= 0 {
		effIPC = 0.1
	}
	var b Breakdown
	b.BaseCycles = in.Instr / effIPC
	b.BranchCycles = in.BranchMPKI * in.Instr / 1000 * float64(in.Core.BranchPenal)
	// Memory latency in core cycles scales with frequency: the DRAM access
	// time in nanoseconds is fixed, so a faster core wastes more cycles per
	// leading miss — the key reason DVFS does not help memory-bound code.
	b.MemCycles = in.LeadingMisses * in.MemLatNs * in.FreqGHz
	return b
}

// Seconds converts a cycle count at the given frequency to wall time.
func Seconds(cycles, freqGHz float64) float64 {
	return cycles / (freqGHz * 1e9)
}

// BandwidthLatency returns the effective memory latency after queueing at a
// bandwidth-partitioned memory controller: as the demand approaches the
// core's share, waiting time inflates the unloaded latency. A simple
// open-queue approximation (latency x (1 + k.u/(1-u)), utilization capped)
// captures the shape that matters to the resource manager: bandwidth-bound
// phases stop benefiting from frequency increases.
func BandwidthLatency(baseNs, demandBps, capBps float64) float64 {
	if capBps <= 0 || demandBps <= 0 {
		return baseNs
	}
	const (
		k    = 0.5
		uMax = 0.95
	)
	u := demandBps / capBps
	if u > uMax {
		u = uMax
	}
	return baseNs * (1 + k*u/(1-u))
}

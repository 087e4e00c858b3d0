// Package arch describes the modeled multi-core hardware: reconfigurable
// out-of-order cores, the DVFS operating-point table, the shared partitioned
// last-level cache (LLC), the memory system, and the cost of switching
// between resource settings.
//
// The parameter values follow the system evaluated in the paper: a multi-core
// processor with per-core DVFS, a way-partitioned shared LLC with an
// auxiliary tag directory (ATD), and (for the Paper II scheme) cores whose
// micro-architectural resources can be partially deactivated at run time.
package arch

import "fmt"

// CoreSize indexes the selectable micro-architecture configurations of a
// reconfigurable core (Paper II). Small deactivates portions of the ROB,
// issue queue and MSHR file to save static and dynamic energy; Large
// activates all of them to expose more ILP/MLP.
type CoreSize int

const (
	// SizeSmall is the most throttled core configuration.
	SizeSmall CoreSize = iota
	// SizeMedium is the baseline core configuration.
	SizeMedium
	// SizeLarge is the fully activated core configuration.
	SizeLarge
	// NumCoreSizes is the number of selectable core configurations.
	NumCoreSizes = 3
)

// String returns a short human-readable name for the core size.
func (c CoreSize) String() string {
	switch c {
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	case SizeLarge:
		return "large"
	default:
		return fmt.Sprintf("CoreSize(%d)", int(c))
	}
}

// CoreParams holds the micro-architectural parameters of one core size.
type CoreParams struct {
	Size        CoreSize
	ROB         int     // reorder-buffer entries
	Width       int     // dispatch/issue width (instructions per cycle)
	MSHRs       int     // outstanding L2 misses supported (bounds MLP)
	CapFactor   float64 // relative switching capacitance vs. medium
	LeakFactor  float64 // relative leakage current vs. medium
	BranchPenal int     // branch misprediction penalty in cycles
}

// DefaultCoreParams returns the three core configurations used throughout
// the evaluation. The medium configuration is the baseline.
func DefaultCoreParams() [NumCoreSizes]CoreParams {
	return [NumCoreSizes]CoreParams{
		SizeSmall:  {Size: SizeSmall, ROB: 64, Width: 2, MSHRs: 8, CapFactor: 0.72, LeakFactor: 0.68, BranchPenal: 12},
		SizeMedium: {Size: SizeMedium, ROB: 128, Width: 4, MSHRs: 8, CapFactor: 1.00, LeakFactor: 1.00, BranchPenal: 14},
		SizeLarge:  {Size: SizeLarge, ROB: 256, Width: 6, MSHRs: 16, CapFactor: 1.45, LeakFactor: 1.55, BranchPenal: 16},
	}
}

// OperatingPoint is one voltage-frequency pair in the DVFS table.
type OperatingPoint struct {
	FreqGHz float64 // core clock frequency
	VoltV   float64 // supply voltage
}

// DVFSTable is the ordered list of selectable operating points, lowest
// frequency first.
type DVFSTable []OperatingPoint

// DefaultDVFSTable returns operating points from 0.8 GHz to 3.2 GHz in
// 0.2 GHz steps with a near-linear V(f) relation, resembling published
// voltage-frequency curves for out-of-order server cores.
func DefaultDVFSTable() DVFSTable {
	const (
		fLo, fHi = 0.8, 3.2
		vLo, vHi = 0.65, 1.25
		steps    = 25
	)
	t := make(DVFSTable, steps)
	for i := range t {
		f := fLo + float64(i)*(fHi-fLo)/float64(steps-1)
		v := vLo + (f-fLo)*(vHi-vLo)/(fHi-fLo)
		t[i] = OperatingPoint{FreqGHz: f, VoltV: v}
	}
	return t
}

// ClosestIndex returns the index of the operating point nearest freqGHz.
func (t DVFSTable) ClosestIndex(freqGHz float64) int {
	best, bestDiff := 0, -1.0
	for i, op := range t {
		d := op.FreqGHz - freqGHz
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// CacheParams describes the shared LLC geometry.
type CacheParams struct {
	Sets     int // number of sets
	Assoc    int // associativity == number of allocatable ways
	LineB    int // line size in bytes
	SampleIn int // ATD set-sampling factor: one in SampleIn sets is sampled
}

// MemParams describes the off-chip memory system. Bandwidth is assumed to be
// partitioned equally among cores (see the thesis, Chapter 2 limitations).
type MemParams struct {
	LatencyNs    float64 // average access latency for a leading miss
	EnergyPerAcc float64 // energy per 64B access in joules
	BackgroundW  float64 // background (static/refresh) power in watts
	// PerCoreGBps is each core's share of memory bandwidth (the thesis
	// assumes the controller partitions bandwidth equally among cores).
	// When positive, the ground-truth model inflates the effective memory
	// latency as a core's demand approaches its share; zero disables the
	// bandwidth model.
	PerCoreGBps float64
}

// SwitchCosts models the overhead of changing resource allocations. Time
// overheads stall the affected core; energy overheads are charged to the
// system total.
type SwitchCosts struct {
	DVFSTransNs  float64 // per V/f change: PLL relock + voltage ramp
	CoreResizeNs float64 // per core-size change: drain + power gate
	WayMigrateNs float64 // per LLC way gained: warm-up stall equivalent
	WayMigrateJ  float64 // per LLC way gained: extra miss traffic energy
	DVFSTransJ   float64 // per V/f change
	CoreResizeJ  float64 // per core-size change
}

// SystemConfig is the complete description of the simulated machine.
type SystemConfig struct {
	NumCores int
	Cores    [NumCoreSizes]CoreParams
	DVFS     DVFSTable
	LLC      CacheParams
	Mem      MemParams
	Switch   SwitchCosts

	// Baseline resource allocation: the setting that defines the QoS target.
	BaselineFreqIdx int      // index into DVFS
	BaselineSize    CoreSize // baseline core configuration
	// Uncore/static system power charged regardless of settings (per core
	// share), in watts. Keeps savings percentages realistic: DVFS cannot
	// scale board-level power away.
	UncoreWPerCore float64
}

// DefaultSystemConfig returns the evaluated machine for the given core count.
// The LLC scales with the core count (4 ways and 1 MiB per core) so that the
// baseline equal partition always grants 4 ways per core.
func DefaultSystemConfig(numCores int) SystemConfig {
	if numCores < 1 {
		panic("arch: system needs at least one core")
	}
	assoc := 4 * numCores
	if assoc < 8 {
		assoc = 8
	}
	dvfs := DefaultDVFSTable()
	return SystemConfig{
		NumCores: numCores,
		Cores:    DefaultCoreParams(),
		DVFS:     dvfs,
		LLC: CacheParams{
			Sets:     1024,
			Assoc:    assoc,
			LineB:    64,
			SampleIn: 32,
		},
		Mem: MemParams{
			LatencyNs:    110,
			EnergyPerAcc: 35e-9,
			BackgroundW:  0.05 * float64(numCores),
		},
		Switch: SwitchCosts{
			DVFSTransNs:  20000, // 20 us
			CoreResizeNs: 5000,  // 5 us
			WayMigrateNs: 2000,  // 2 us per way gained
			WayMigrateJ:  4e-6,
			DVFSTransJ:   8e-6,
			CoreResizeJ:  3e-6,
		},
		BaselineFreqIdx: dvfs.ClosestIndex(2.0),
		BaselineSize:    SizeMedium,
		UncoreWPerCore:  0.05,
	}
}

// BaselineWays returns the equal-partition way allocation per core.
func (s SystemConfig) BaselineWays() int { return s.LLC.Assoc / s.NumCores }

// Validate checks internal consistency and returns a descriptive error for
// the first violated invariant.
func (s SystemConfig) Validate() error {
	switch {
	case s.NumCores < 1:
		return fmt.Errorf("arch: NumCores = %d, need >= 1", s.NumCores)
	case len(s.DVFS) == 0:
		return fmt.Errorf("arch: empty DVFS table")
	case s.BaselineFreqIdx < 0 || s.BaselineFreqIdx >= len(s.DVFS):
		return fmt.Errorf("arch: baseline frequency index %d out of range", s.BaselineFreqIdx)
	case s.LLC.Assoc < s.NumCores:
		return fmt.Errorf("arch: LLC associativity %d < cores %d (each core needs >= 1 way)", s.LLC.Assoc, s.NumCores)
	case s.LLC.Assoc%s.NumCores != 0:
		return fmt.Errorf("arch: LLC associativity %d not divisible by cores %d (baseline equal partition impossible)", s.LLC.Assoc, s.NumCores)
	case s.LLC.Sets <= 0 || s.LLC.LineB <= 0:
		return fmt.Errorf("arch: invalid LLC geometry %+v", s.LLC)
	case s.LLC.SampleIn <= 0 || s.LLC.Sets%s.LLC.SampleIn != 0:
		return fmt.Errorf("arch: ATD sampling factor %d must divide sets %d", s.LLC.SampleIn, s.LLC.Sets)
	case s.Mem.LatencyNs <= 0:
		return fmt.Errorf("arch: memory latency must be positive")
	}
	for i := 1; i < len(s.DVFS); i++ {
		if s.DVFS[i].FreqGHz <= s.DVFS[i-1].FreqGHz {
			return fmt.Errorf("arch: DVFS table not strictly increasing at %d", i)
		}
		if s.DVFS[i].VoltV < s.DVFS[i-1].VoltV {
			return fmt.Errorf("arch: DVFS voltage decreasing at %d", i)
		}
	}
	return nil
}

// Setting is one core's complete resource allocation.
type Setting struct {
	Size    CoreSize
	FreqIdx int // index into the DVFS table
	Ways    int // LLC ways allocated to this core
}

// String renders the setting compactly, e.g. "medium@2.0GHz/4w".
func (s Setting) String() string {
	return fmt.Sprintf("%s@f%d/%dw", s.Size, s.FreqIdx, s.Ways)
}

// BaselineSetting returns the per-core baseline allocation for the system.
func (s SystemConfig) BaselineSetting() Setting {
	return Setting{Size: s.BaselineSize, FreqIdx: s.BaselineFreqIdx, Ways: s.BaselineWays()}
}

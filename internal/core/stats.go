// Package core implements the paper's primary contribution: QoS-driven
// coordinated management of per-core DVFS, LLC partitioning and (Paper II)
// core micro-architecture size.
//
// The resource manager is invoked on a core at every interval boundary
// (100M retired instructions). From the interval's hardware-counter
// statistics and the auxiliary-tag-directory profiles it:
//
//  1. predicts performance and energy for the upcoming interval as a
//     function of the core's resource setting (analytical models,
//     model.go),
//  2. prunes the per-core configuration space with the QoS target —
//     for every way count w it finds the cheapest (size, frequency)
//     meeting the target, yielding an energy curve E(w) (optimize.go),
//  3. reduces the energy curves of all cores to the global optimum way
//     allocation (optimize.go), and
//  4. emits the new per-core settings (rma.go).
package core

import "qosrma/internal/arch"

// IntervalStats is everything the resource manager observes about one
// core's most recently completed interval: hardware performance counters
// plus the ATD and MLP-ATD profiles.
type IntervalStats struct {
	Core int // core index

	// Key, when nonzero, names the database records the statistics were
	// derived from: two statistics with the same nonzero key are equal in
	// every field except Core. The manager memoizes energy curves and
	// allocations by it. Zero means unkeyed, and unkeyed statistics always
	// take the uncached path. rmasim.FillStats is the only producer of
	// keys; statistics assembled any other way leave it zero.
	Key uint64

	// Setting is the resource allocation the interval executed under.
	Setting arch.Setting

	Instr  float64 // retired instructions (the interval length)
	Cycles float64 // elapsed core cycles

	LLCAccesses   float64 // LLC accesses in the interval
	BranchMisses  float64 // branch mispredictions in the interval
	TotalMisses   float64 // LLC misses at the current allocation
	LeadingMisses float64 // non-overlapped misses (leading-loads counter)

	// ATDMisses[w] is the ATD miss profile: predicted misses for every
	// possible way allocation (index 0..assoc).
	ATDMisses []float64

	// ATDLeading[c][w] is the MLP-ATD leading-miss profile per core size
	// (Paper II hardware). Nil when the hardware extension is absent; the
	// models then fall back to the constant-MLP assumption.
	ATDLeading [][]float64

	// IlpIPC, when positive, is the phase's true dependency-limited IPC.
	// It is set only on oracle ("perfect model") statistics; realistic
	// statistics leave it zero and the predictor infers the compute
	// component from Cycles.
	IlpIPC float64
}

// MLP returns the measured memory-level parallelism of the interval.
func (s *IntervalStats) MLP() float64 {
	if s.LeadingMisses <= 0 {
		return 1
	}
	m := s.TotalMisses / s.LeadingMisses
	if m < 1 {
		return 1
	}
	return m
}

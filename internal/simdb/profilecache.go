package simdb

import (
	"sync/atomic"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/flight"
	"qosrma/internal/simpoint"
	"qosrma/internal/trace"
)

// The build side of the methodology — "simulate in detail once" — is pure:
// a phase profile depends only on the generated sample stream (behaviour
// spec + stream seed + sample sizes) and the profile-relevant hardware
// (LLC sets and sampling factor, per-core-size ROB/MSHR). It does NOT
// depend on the DVFS table, memory latency, bandwidth caps, power
// parameters or switch costs — those only enter at table compilation.
// This file implements a process-wide, single-flight cache over that pure
// function, so databases that share profile-relevant configuration (DB4
// and DB8, repeated builds in tests and benchmarks, sweeps) profile each
// phase exactly once.
//
// Profiles are keyed without the LLC associativity and stored at the
// deepest associativity requested so far: LRU stack order is
// capacity-independent (a shallower directory's stacks are prefixes of a
// deeper one's), so a profile taken at assoc P serves any request with
// assoc A <= P by truncation, bit-identically. BuildAll therefore profiles
// at the deepest LLC associativity among the systems it builds, letting
// the 4-core and 8-core databases share one pass per phase.

// profileKey identifies the inputs of one phase profile. The jittered
// behaviour spec is embedded by value (it is comparable), so two
// benchmarks that happen to share a name but differ in behaviour can never
// alias.
type profileKey struct {
	behavior   trace.Behavior
	streamSeed uint64
	sets       int
	sampleIn   int
	sample     trace.SampleParams
	cores      [arch.NumCoreSizes]cache.CoreMLPParams
}

// phaseProfile is the cached, system-independent result of profiling one
// phase: integer miss/leading counts at the entry's associativity plus the
// stream statistics needed to scale them to a full interval.
type phaseProfile struct {
	assoc       int
	sampleIn    int
	ilpIPC      float64
	branchMPKI  float64
	measured    int     // number of measured accesses
	windowInstr float64 // instructions spanned by the measured stream

	missCount        []int   // exact misses at w ways, w in 0..assoc
	sampledMissCount []int   // sampled-set misses, unscaled
	leading          [][]int // [coreSize][w] leading misses
}

// profileCache holds each key's profile at the deepest associativity
// requested so far: a caller that needs a deeper one recomputes it and
// replaces the shallower entry.
type profileCache struct {
	flights  flight.Group[profileKey, *phaseProfile]
	hits     atomic.Uint64
	computes atomic.Uint64
}

var profCache = &profileCache{}

// ResetProfileCache drops every cached phase profile and SimPoint
// analysis and zeroes the counters. Intended for tests and benchmarks
// that need a cold build.
//
//qosrma:allow(testonly) the root build benchmarks need a cold cache
func ResetProfileCache() {
	profCache.flights.Forget()
	profCache.hits.Store(0)
	profCache.computes.Store(0)
	analysisCache.Forget()
}

// get returns the profile for key at an associativity of at least assoc,
// computing it at most once per (key, sufficient depth) across all
// concurrent callers.
func (pc *profileCache) get(key profileKey, assoc int) *phaseProfile {
	deep := func(p *phaseProfile) bool { return p.assoc >= assoc }
	prof, hit, _ := pc.flights.Do(key, deep, func() (*phaseProfile, error) {
		return computePhaseProfile(key, assoc), nil
	})
	if hit {
		pc.hits.Add(1)
	} else {
		pc.computes.Add(1)
	}
	return prof
}

// computePhaseProfile generates the sample stream and runs the fused
// one-pass profiler (cache.ProfileStream) over it.
func computePhaseProfile(key profileKey, assoc int) *phaseProfile {
	stream := key.behavior.Generate(key.streamSeed, key.sample)
	sp := cache.ProfileStream(key.sets, assoc, key.sampleIn, stream.Warmup, stream.Measured, key.cores[:])
	return &phaseProfile{
		assoc:            assoc,
		sampleIn:         key.sampleIn,
		ilpIPC:           key.behavior.IlpIPC,
		branchMPKI:       key.behavior.BranchMPKI,
		measured:         len(stream.Measured),
		windowInstr:      stream.WindowInstr,
		missCount:        sp.MissCount,
		sampledMissCount: sp.SampledMissCount,
		leading:          sp.Leading,
	}
}

// record derives the PhaseRecord of one phase for a system with
// associativity assoc <= p.assoc. Every arithmetic expression mirrors the
// historical two-ATD + per-(c,w) computation exactly, so records — and the
// tables compiled from them — are bit-identical to a cache-free build.
func (p *phaseProfile) record(assoc int, an *simpoint.Analysis, phase int) *PhaseRecord {
	scale := trace.SliceInstructions / p.windowInstr
	if p.windowInstr <= 0 {
		scale = 0
	}
	rec := &PhaseRecord{
		IlpIPC:         p.ilpIPC,
		BranchMPKI:     p.branchMPKI,
		APKI:           float64(p.measured) / p.windowInstr * 1000,
		Misses:         make([]float64, assoc+1),
		SampledMisses:  make([]float64, assoc+1),
		Leading:        make([][]float64, arch.NumCoreSizes),
		SampledLeading: make([][]float64, arch.NumCoreSizes),
		Weight:         an.Weight[phase],
		RepSlice:       an.Representative[phase],
	}
	for w := 0; w <= assoc; w++ {
		rec.Misses[w] = float64(p.missCount[w]) * scale
		rec.SampledMisses[w] = float64(p.sampledMissCount[w]) * float64(p.sampleIn) * scale
	}
	for c := 0; c < arch.NumCoreSizes; c++ {
		rec.Leading[c] = make([]float64, assoc+1)
		rec.SampledLeading[c] = make([]float64, assoc+1)
		for w := 0; w <= assoc; w++ {
			lead := float64(p.leading[c][w]) * scale
			rec.Leading[c][w] = lead
			if exactM := rec.Misses[w]; exactM > 0 {
				rec.SampledLeading[c][w] = lead * rec.SampledMisses[w] / exactM
			}
		}
	}
	return rec
}

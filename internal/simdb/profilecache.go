package simdb

import (
	"sync"
	"sync/atomic"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
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

// profileEntry is one single-flight cache slot. done is closed when prof
// is ready; waiters that need a deeper associativity than the entry holds
// replace it and recompute.
type profileEntry struct {
	done  chan struct{}
	assoc int
	prof  *phaseProfile
}

type profileCache struct {
	mu      sync.Mutex
	entries map[profileKey]*profileEntry

	hits     atomic.Uint64
	computes atomic.Uint64
}

var profCache = &profileCache{entries: make(map[profileKey]*profileEntry)}

// ProfileCacheStats reports the process-wide phase-profile cache counters:
// hits served from a finished (or in-flight) profile, and computes — full
// fused profiling passes actually executed.
func ProfileCacheStats() (hits, computes uint64) {
	return profCache.hits.Load(), profCache.computes.Load()
}

// ResetProfileCache drops every cached phase profile and SimPoint
// analysis and zeroes the counters. Intended for tests and benchmarks
// that need a cold build.
func ResetProfileCache() {
	profCache.mu.Lock()
	profCache.entries = make(map[profileKey]*profileEntry)
	profCache.mu.Unlock()
	profCache.hits.Store(0)
	profCache.computes.Store(0)
	analysisCache.Clear()
}

// get returns the profile for key at an associativity of at least assoc,
// computing it at most once per (key, sufficient depth) across all
// concurrent callers.
func (pc *profileCache) get(key profileKey, assoc int) *phaseProfile {
	for {
		pc.mu.Lock()
		e := pc.entries[key]
		if e == nil {
			e = &profileEntry{done: make(chan struct{}), assoc: assoc}
			pc.entries[key] = e
			pc.mu.Unlock()
			pc.computes.Add(1)
			e.prof = computePhaseProfile(key, assoc)
			close(e.done)
			return e.prof
		}
		pc.mu.Unlock()
		<-e.done
		if e.assoc >= assoc {
			pc.hits.Add(1)
			return e.prof
		}
		// The cached profile is too shallow (an earlier build used a
		// smaller LLC): replace it with a deeper one, unless another
		// caller already has.
		pc.mu.Lock()
		if pc.entries[key] == e {
			ne := &profileEntry{done: make(chan struct{}), assoc: assoc}
			pc.entries[key] = ne
			pc.mu.Unlock()
			pc.computes.Add(1)
			ne.prof = computePhaseProfile(key, assoc)
			close(ne.done)
			return ne.prof
		}
		pc.mu.Unlock()
	}
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

package simdb

import (
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/simpoint"
	"qosrma/internal/trace"
)

// naiveSimulatePhase is the historical build-side implementation the fused
// pipeline replaced: one warmed exact-ATD pass for distances, a second
// warmed set-sampled ATD pass, and one full AnalyzeMLP stream scan per
// (core size, way allocation). The property tests pin the fused, cached
// pipeline bit-identical to it.
func naiveSimulatePhase(sys arch.SystemConfig, b *trace.Benchmark, an *simpoint.Analysis, phase int, sp trace.SampleParams) *PhaseRecord {
	rep := an.Representative[phase]
	behavior := b.SliceBehaviorSpec(rep)
	behaviorIdx := b.SliceBehavior[rep]
	stream := behavior.Generate(b.StreamSeed(behaviorIdx), sp)
	scale := stream.ScaleToSlice()

	assoc := sys.LLC.Assoc
	sets := sys.LLC.Sets

	dists := cache.Distances(sets, assoc, stream.Warmup, stream.Measured)

	sampled := cache.NewATD(sets, assoc, sys.LLC.SampleIn)
	for _, a := range stream.Warmup {
		sampled.Access(a.Line)
	}
	sampled.ResetCounters()
	for _, a := range stream.Measured {
		sampled.Access(a.Line)
	}

	rec := &PhaseRecord{
		IlpIPC:         behavior.IlpIPC,
		BranchMPKI:     behavior.BranchMPKI,
		APKI:           float64(len(stream.Measured)) / stream.WindowInstr * 1000,
		Misses:         make([]float64, assoc+1),
		SampledMisses:  make([]float64, assoc+1),
		Leading:        make([][]float64, arch.NumCoreSizes),
		SampledLeading: make([][]float64, arch.NumCoreSizes),
		Weight:         an.Weight[phase],
		RepSlice:       rep,
	}
	for w := 0; w <= assoc; w++ {
		rec.Misses[w] = float64(cache.MissCount(dists, w)) * scale
		rec.SampledMisses[w] = sampled.Misses(w) * scale
	}
	for c := 0; c < arch.NumCoreSizes; c++ {
		cp := sys.Cores[c]
		rec.Leading[c] = make([]float64, assoc+1)
		rec.SampledLeading[c] = make([]float64, assoc+1)
		for w := 0; w <= assoc; w++ {
			r := cache.AnalyzeMLP(stream.Measured, dists, w, cp.ROB, cp.MSHRs)
			lead := float64(r.LeadingMisses) * scale
			rec.Leading[c][w] = lead
			if exactM := rec.Misses[w]; exactM > 0 {
				rec.SampledLeading[c][w] = lead * rec.SampledMisses[w] / exactM
			}
		}
	}
	return rec
}

func recordsEqual(t *testing.T, label string, got, want *PhaseRecord) {
	t.Helper()
	if got.IlpIPC != want.IlpIPC || got.BranchMPKI != want.BranchMPKI ||
		got.APKI != want.APKI || got.Weight != want.Weight || got.RepSlice != want.RepSlice {
		t.Fatalf("%s: scalar fields differ:\ngot  %+v\nwant %+v", label, got, want)
	}
	if len(got.Misses) != len(want.Misses) {
		t.Fatalf("%s: profile length %d != %d", label, len(got.Misses), len(want.Misses))
	}
	for w := range want.Misses {
		if got.Misses[w] != want.Misses[w] {
			t.Fatalf("%s: Misses[%d] = %v, want %v", label, w, got.Misses[w], want.Misses[w])
		}
		if got.SampledMisses[w] != want.SampledMisses[w] {
			t.Fatalf("%s: SampledMisses[%d] = %v, want %v", label, w, got.SampledMisses[w], want.SampledMisses[w])
		}
	}
	for c := range want.Leading {
		for w := range want.Leading[c] {
			if got.Leading[c][w] != want.Leading[c][w] {
				t.Fatalf("%s: Leading[%d][%d] = %v, want %v", label, c, w,
					got.Leading[c][w], want.Leading[c][w])
			}
			if got.SampledLeading[c][w] != want.SampledLeading[c][w] {
				t.Fatalf("%s: SampledLeading[%d][%d] = %v, want %v", label, c, w,
					got.SampledLeading[c][w], want.SampledLeading[c][w])
			}
		}
	}
}

// BenchmarkSimulatePhaseNaive measures the retained naive reference
// implementation (per-(c,w) AnalyzeMLP passes + two warmed ATD passes) on
// the default sample sizes — the before side of the fused pipeline's
// speedup; the after side is the root package's BenchmarkSimulatePhase.
func BenchmarkSimulatePhaseNaive(b *testing.B) {
	sys := arch.DefaultSystemConfig(4)
	bench := trace.ByName("gcc")
	an := simpoint.Analyze(bench, simpoint.DefaultOptions())
	sp := trace.DefaultSampleParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveSimulatePhase(sys, bench, an, 0, sp)
	}
}

// TestFusedPipelineMatchesNaive pins every record of a built database —
// fused profiler, profile cache and deep-directory truncation included —
// bit-identical to the historical per-(c,w) two-ATD implementation, for
// both a 16-way and a 32-way system (the latter exercising sharing of the
// deep profile, the former its truncated view).
func TestFusedPipelineMatchesNaive(t *testing.T) {
	benches := []*trace.Benchmark{trace.ByName("mcf"), trace.ByName("libquantum"), trace.ByName("gcc")}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 8000, WarmupAccesses: 2500}

	sys4 := arch.DefaultSystemConfig(4)
	sys8 := arch.DefaultSystemConfig(8)
	dbs, err := BuildAll([]arch.SystemConfig{sys4, sys8}, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	for si, sys := range []arch.SystemConfig{sys4, sys8} {
		db := dbs[si]
		for _, bd := range db.Benches {
			for p := range bd.Phases {
				want := naiveSimulatePhase(sys, trace.ByName(bd.Name), bd.Analysis, p, opt.Sample)
				recordsEqual(t, bd.Name, bd.Phases[p], want)

				// The exported uncached kernel agrees too.
				got := SimulatePhase(sys, trace.ByName(bd.Name), bd.Analysis, p, opt.Sample)
				recordsEqual(t, bd.Name+"/uncached", got, want)
			}
		}
	}
}

// TestProfileCacheSharedAcrossGeometries verifies the tentpole sharing
// property: the default 4- and 8-core systems differ only in LLC
// associativity (a profile-irrelevant parameter thanks to deep profiling),
// so building both must profile each phase exactly once.
func TestProfileCacheSharedAcrossGeometries(t *testing.T) {
	ResetProfileCache()
	benches := []*trace.Benchmark{trace.ByName("hmmer"), trace.ByName("milc")}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 4000, WarmupAccesses: 1000}

	dbs, err := BuildAll([]arch.SystemConfig{arch.DefaultSystemConfig(4), arch.DefaultSystemConfig(8)}, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	phases := dbs[0].NumRecords()
	if dbs[1].NumRecords() != phases {
		t.Fatalf("phase counts differ: %d vs %d", phases, dbs[1].NumRecords())
	}
	hits, computes := ProfileCacheStats()
	if computes != uint64(phases) {
		t.Fatalf("profiled %d times for %d shared phases (hits %d)", computes, phases, hits)
	}
	if hits != uint64(phases) {
		t.Fatalf("second database hit the cache %d times, want %d", hits, phases)
	}

	// A later, separate build of either system is served fully from cache.
	if _, err := Build(arch.DefaultSystemConfig(4), benches, opt); err != nil {
		t.Fatal(err)
	}
	_, computesAfter := ProfileCacheStats()
	if computesAfter != computes {
		t.Fatalf("rebuild recomputed %d profiles, want 0", computesAfter-computes)
	}
}

// TestProfileCacheMissesOnProfileRelevantChange verifies the key covers
// exactly the profile-relevant configuration: changing the ATD sampling
// factor or a core's MSHR count must recompute, while the
// bandwidth-override ablation — which changes the compiled tables but not
// the underlying profiles, mirroring Recompiled's sharing semantics —
// must not.
func TestProfileCacheMissesOnProfileRelevantChange(t *testing.T) {
	ResetProfileCache()
	benches := []*trace.Benchmark{trace.ByName("lbm")}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 4000, WarmupAccesses: 1000}

	base := arch.DefaultSystemConfig(4)
	if _, err := Build(base, benches, opt); err != nil {
		t.Fatal(err)
	}
	_, computes0 := ProfileCacheStats()

	// Perf-neutral for profiling: the bandwidth-override ablation.
	bw := base
	bw.Mem.PerCoreGBps = 3
	if _, err := Build(bw, benches, opt); err != nil {
		t.Fatal(err)
	}
	_, computes1 := ProfileCacheStats()
	if computes1 != computes0 {
		t.Fatalf("bandwidth override recomputed %d profiles; profiles are bandwidth-independent", computes1-computes0)
	}

	// Profile-relevant: ATD set-sampling density (the AB.SAMP ablation).
	samp := base
	samp.LLC.SampleIn = 128
	if _, err := Build(samp, benches, opt); err != nil {
		t.Fatal(err)
	}
	_, computes2 := ProfileCacheStats()
	if computes2 == computes1 {
		t.Fatal("changing SampleIn did not recompute profiles")
	}

	// Profile-relevant: a core size's MSHR count (bounds MLP).
	mshr := base
	mshr.Cores[arch.SizeLarge].MSHRs = 32
	if _, err := Build(mshr, benches, opt); err != nil {
		t.Fatal(err)
	}
	_, computes3 := ProfileCacheStats()
	if computes3 == computes2 {
		t.Fatal("changing MSHRs did not recompute profiles")
	}
}

// TestProfileCacheSingleFlight races many concurrent builds of the same
// configuration (run under -race in CI): every phase must be profiled
// exactly once, with all other callers waiting on the in-flight
// computation, and all results must agree.
func TestProfileCacheSingleFlight(t *testing.T) {
	ResetProfileCache()
	benches := []*trace.Benchmark{trace.ByName("soplex"), trace.ByName("astar")}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 3000, WarmupAccesses: 800}
	sys := arch.DefaultSystemConfig(4)

	const callers = 8
	dbs := make([]*DB, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dbs[i], errs[i] = Build(sys, benches, opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	_, computes := ProfileCacheStats()
	if want := uint64(dbs[0].NumRecords()); computes != want {
		t.Fatalf("%d profile computations for %d phases under %d concurrent builds",
			computes, want, callers)
	}
	for i := 1; i < callers; i++ {
		for bi, bd := range dbs[0].Benches {
			for p := range bd.Phases {
				recordsEqual(t, bd.Name, dbs[i].Benches[bi].Phases[p], bd.Phases[p])
			}
		}
	}
}

// TestProfileCacheUpgradesDepth verifies the replace-on-deeper-request
// path: a shallow build first, then a deeper-LLC build of the same
// profile key must recompute (once) and still serve both depths.
func TestProfileCacheUpgradesDepth(t *testing.T) {
	ResetProfileCache()
	benches := []*trace.Benchmark{trace.ByName("bwaves")}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 3000, WarmupAccesses: 800}

	db4, err := Build(arch.DefaultSystemConfig(4), benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, computes0 := ProfileCacheStats()
	db8, err := Build(arch.DefaultSystemConfig(8), benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, computes1 := ProfileCacheStats()
	if computes1 != 2*computes0 {
		t.Fatalf("deeper rebuild computed %d profiles, want %d", computes1-computes0, computes0)
	}
	// The deep profile's truncation serves the shallow system afterwards.
	db4b, err := Build(arch.DefaultSystemConfig(4), benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, computes2 := ProfileCacheStats()
	if computes2 != computes1 {
		t.Fatalf("shallow rebuild after deep recomputed %d profiles, want 0", computes2-computes1)
	}
	for bi, bd := range db4.Benches {
		for p := range bd.Phases {
			recordsEqual(t, bd.Name, db4b.Benches[bi].Phases[p], bd.Phases[p])
		}
	}
	if db8.NumRecords() != db4.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", db8.NumRecords(), db4.NumRecords())
	}
}

// ProfileCacheStats reports the process-wide phase-profile cache counters:
// hits served from a finished (or in-flight) profile, and computes — full
// fused profiling passes actually executed.
func ProfileCacheStats() (hits, computes uint64) {
	return profCache.hits.Load(), profCache.computes.Load()
}

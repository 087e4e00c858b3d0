package cache

import (
	"testing"
	"testing/quick"

	"qosrma/internal/trace"
)

// testCores are three core configurations spanning the MLP-relevant space,
// matching arch.DefaultCoreParams without importing arch (cycle-free).
var testCores = []CoreMLPParams{
	{ROB: 64, MSHRs: 8},
	{ROB: 128, MSHRs: 8},
	{ROB: 256, MSHRs: 16},
}

// naiveProfile recomputes everything ProfileStream produces the pre-fusion
// way: one full AnalyzeMLP pass per (core, ways) point, MissCount per w,
// and a separately driven sampled ATD — the reference the fused pass is
// pinned against.
func naiveProfile(sets, assoc, sampleIn int, warmup, measured []trace.Access, cores []CoreMLPParams) *StreamProfile {
	dists := Distances(sets, assoc, warmup, measured)

	sampled := NewATD(sets, assoc, sampleIn)
	for _, a := range warmup {
		sampled.Access(a.Line)
	}
	sampled.ResetCounters()
	for _, a := range measured {
		sampled.Access(a.Line)
	}

	p := &StreamProfile{
		Assoc:            assoc,
		SampleIn:         sampleIn,
		Cores:            cores,
		Dists:            dists,
		MissCount:        make([]int, assoc+1),
		SampledMissCount: make([]int, assoc+1),
		Leading:          make([][]int, len(cores)),
	}
	for w := 0; w <= assoc; w++ {
		p.MissCount[w] = MissCount(dists, w)
		p.SampledMissCount[w] = int(sampled.Misses(w)) / sampleIn
	}
	for c, cp := range cores {
		p.Leading[c] = make([]int, assoc+1)
		for w := 0; w <= assoc; w++ {
			p.Leading[c][w] = AnalyzeMLP(measured, dists, w, cp.ROB, cp.MSHRs).LeadingMisses
		}
	}
	return p
}

func profilesEqual(t *testing.T, label string, fused, naive *StreamProfile) {
	t.Helper()
	for i := range naive.Dists {
		if fused.Dists[i] != naive.Dists[i] {
			t.Fatalf("%s: distance %d differs: %d vs %d", label, i, fused.Dists[i], naive.Dists[i])
		}
	}
	for w := range naive.MissCount {
		if fused.MissCount[w] != naive.MissCount[w] {
			t.Fatalf("%s: miss count at w=%d: fused %d, naive %d",
				label, w, fused.MissCount[w], naive.MissCount[w])
		}
		if fused.SampledMissCount[w] != naive.SampledMissCount[w] {
			t.Fatalf("%s: sampled miss count at w=%d: fused %d, naive %d",
				label, w, fused.SampledMissCount[w], naive.SampledMissCount[w])
		}
	}
	for c := range naive.Leading {
		for w := range naive.Leading[c] {
			if fused.Leading[c][w] != naive.Leading[c][w] {
				t.Fatalf("%s: leading at c=%d w=%d: fused %d, naive %d",
					label, c, w, fused.Leading[c][w], naive.Leading[c][w])
			}
		}
	}
}

// TestProfileStreamMatchesNaive pins the fused one-pass profiler
// bit-identical to the per-(core, ways) AnalyzeMLP loop and the two-ATD
// miss profiling it replaces, over generated behaviours.
func TestProfileStreamMatchesNaive(t *testing.T) {
	behaviors := []trace.Behavior{
		{Name: "hotset", IlpIPC: 2.5, APKI: 15,
			HotLines: 2000, WarmLines: 5000, PHot: 0.45, PWarm: 0.35,
			PBurst: 0.3, BurstLen: 6, BurstGap: 10, PDep: 0.2},
		{Name: "streamer", IlpIPC: 3.2, APKI: 22,
			HotLines: 150, PHot: 0.15,
			PBurst: 0.5, BurstLen: 12, BurstGap: 5, PDep: 0.03},
		{Name: "chaser", IlpIPC: 1.5, APKI: 25,
			HotLines: 1800, WarmLines: 4200, PHot: 0.44, PWarm: 0.44,
			PBurst: 0.15, BurstLen: 3, BurstGap: 30, PDep: 0.80},
	}
	for _, bh := range behaviors {
		s := bh.Generate(17, trace.SampleParams{Accesses: 12000, WarmupAccesses: 4000})
		for _, geo := range []struct{ sets, assoc, sampleIn int }{
			{1024, 16, 32}, {1024, 32, 32}, {256, 8, 4}, {64, 16, 1},
		} {
			fused := ProfileStream(geo.sets, geo.assoc, geo.sampleIn, s.Warmup, s.Measured, testCores)
			naive := naiveProfile(geo.sets, geo.assoc, geo.sampleIn, s.Warmup, s.Measured, testCores)
			profilesEqual(t, bh.Name, fused, naive)
		}
	}
}

// TestProfileStreamMatchesNaiveQuick fuzzes the equivalence over random
// synthetic streams (the same generator the cache tests use).
func TestProfileStreamMatchesNaiveQuick(t *testing.T) {
	f := func(seed uint64, hot16 uint16) bool {
		stream := randomStream(seed, 3000, 1+int(hot16%4000))
		warm, meas := stream[:500], stream[500:]
		fused := ProfileStream(64, 16, 4, warm, meas, testCores)
		naive := naiveProfile(64, 16, 4, warm, meas, testCores)
		for w := range naive.MissCount {
			if fused.MissCount[w] != naive.MissCount[w] ||
				fused.SampledMissCount[w] != naive.SampledMissCount[w] {
				return false
			}
		}
		for c := range naive.Leading {
			for w := range naive.Leading[c] {
				if fused.Leading[c][w] != naive.Leading[c][w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileStreamPrefixConsistent pins the truncation property the
// cross-database profile cache relies on: a profile taken with a deeper
// directory (larger assoc) restricted to w <= A equals the profile taken
// at assoc A directly. LRU stack order is capacity-independent, so the
// shallow directory's stacks are prefixes of the deep directory's.
func TestProfileStreamPrefixConsistent(t *testing.T) {
	bh := trace.Behavior{
		Name: "mix", IlpIPC: 2.2, APKI: 18,
		HotLines: 1200, WarmLines: 3000, PHot: 0.4, PWarm: 0.4,
		PBurst: 0.3, BurstLen: 7, BurstGap: 9, PDep: 0.25,
	}
	s := bh.Generate(23, trace.SampleParams{Accesses: 15000, WarmupAccesses: 5000})
	deep := ProfileStream(1024, 32, 32, s.Warmup, s.Measured, testCores)
	shallow := ProfileStream(1024, 16, 32, s.Warmup, s.Measured, testCores)
	for w := 0; w <= 16; w++ {
		if deep.MissCount[w] != shallow.MissCount[w] {
			t.Fatalf("miss count at w=%d: deep %d, shallow %d", w, deep.MissCount[w], shallow.MissCount[w])
		}
		if deep.SampledMissCount[w] != shallow.SampledMissCount[w] {
			t.Fatalf("sampled miss count at w=%d: deep %d, shallow %d",
				w, deep.SampledMissCount[w], shallow.SampledMissCount[w])
		}
		for c := range testCores {
			if deep.Leading[c][w] != shallow.Leading[c][w] {
				t.Fatalf("leading at c=%d w=%d: deep %d, shallow %d",
					c, w, deep.Leading[c][w], shallow.Leading[c][w])
			}
		}
	}
	// Distances agree wherever the shallow directory can express them.
	for i := range shallow.Dists {
		ds, dd := shallow.Dists[i], deep.Dists[i]
		if ds >= 0 && ds != dd {
			t.Fatalf("distance %d: shallow %d, deep %d", i, ds, dd)
		}
		if ds < 0 && dd >= 0 && dd < 16 {
			t.Fatalf("distance %d: shallow miss but deep says %d", i, dd)
		}
	}
}

// Profile returns Misses(w) for every w in 0..assoc.
func (a *ATD) Profile() []float64 {
	p := make([]float64, a.assoc+1)
	for w := 0; w <= a.assoc; w++ {
		p[w] = a.Misses(w)
	}
	return p
}

// Reset clears counters and tag stacks.
func (a *ATD) Reset() {
	for i := range a.lens {
		a.lens[i] = 0
	}
	for i := range a.hits {
		a.hits[i] = 0
	}
	a.deep = 0
	a.n = 0
}

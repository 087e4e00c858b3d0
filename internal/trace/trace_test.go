package trace

import (
	"math"
	"testing"
	"testing/quick"

	"qosrma/internal/stats"
)

func TestSuiteWellFormed(t *testing.T) {
	suite := Suite()
	if len(suite) != 20 {
		t.Fatalf("suite size = %d, want 20", len(suite))
	}
	names := make(map[string]bool)
	for _, b := range suite {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		names[b.Name] = true
		if b.NumSlices() < 200 {
			t.Errorf("%s: only %d slices, want a long-running program", b.Name, b.NumSlices())
		}
		if len(b.Behaviors) == 0 {
			t.Fatalf("%s: no behaviours", b.Name)
		}
		for i, idx := range b.SliceBehavior {
			if idx < 0 || idx >= len(b.Behaviors) {
				t.Fatalf("%s: slice %d references behaviour %d", b.Name, i, idx)
			}
		}
		for _, bh := range b.Behaviors {
			if bh.APKI <= 0 || bh.IlpIPC <= 0 {
				t.Errorf("%s/%s: non-positive APKI or IlpIPC", b.Name, bh.Name)
			}
			if bh.PHot+bh.PWarm > 1 {
				t.Errorf("%s/%s: PHot+PWarm > 1", b.Name, bh.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("mcf") == nil {
		t.Fatal("mcf missing")
	}
	if ByName("doesnotexist") != nil {
		t.Fatal("unexpected benchmark found")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b := ByName("mcf")
	p := SampleParams{Accesses: 2000, WarmupAccesses: 500}
	s1 := b.Behaviors[0].Generate(b.StreamSeed(0), p)
	s2 := b.Behaviors[0].Generate(b.StreamSeed(0), p)
	if len(s1.Measured) != len(s2.Measured) {
		t.Fatal("lengths differ")
	}
	for i := range s1.Measured {
		if s1.Measured[i] != s2.Measured[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestGenerateAPKIMatches(t *testing.T) {
	for _, name := range []string{"mcf", "libquantum", "hmmer", "bzip2"} {
		b := ByName(name)
		bh := b.Behaviors[0]
		s := bh.Generate(b.StreamSeed(0), SampleParams{Accesses: 40000, WarmupAccesses: 1000})
		gotAPKI := float64(len(s.Measured)) / s.WindowInstr * 1000
		if rel := math.Abs(gotAPKI-bh.APKI) / bh.APKI; rel > 0.10 {
			t.Errorf("%s: generated APKI %.2f vs spec %.2f (rel err %.2f)",
				name, gotAPKI, bh.APKI, rel)
		}
	}
}

func TestGenerateInstrMonotonic(t *testing.T) {
	b := ByName("soplex")
	s := b.Behaviors[0].Generate(b.StreamSeed(0), SampleParams{Accesses: 5000, WarmupAccesses: 100})
	prev := uint32(0)
	for i, a := range s.Measured {
		if a.Instr < prev {
			t.Fatalf("instruction index decreased at %d", i)
		}
		prev = a.Instr
	}
}

func TestGenerateRegionShares(t *testing.T) {
	b := ByName("mcf")
	bh := b.Behaviors[0]
	s := bh.Generate(b.StreamSeed(0), SampleParams{Accesses: 50000, WarmupAccesses: 0})
	var hot, warm, stream int
	for _, a := range s.Measured {
		switch {
		case int(a.Line) < bh.HotLines:
			hot++
		case int(a.Line) < bh.HotLines+bh.WarmLines:
			warm++
		default:
			stream++
		}
	}
	n := float64(len(s.Measured))
	// Streamed lines wrap back into [HotLines+WarmLines, wrap), so hot/warm
	// counts here slightly overestimate only if wrap occurred (it cannot at
	// this stream length). Tolerances are loose statistical checks.
	if got := float64(hot) / n; math.Abs(got-bh.PHot) > 0.02 {
		t.Errorf("hot share %.3f, want ~%.2f", got, bh.PHot)
	}
	if got := float64(warm) / n; math.Abs(got-bh.PWarm) > 0.02 {
		t.Errorf("warm share %.3f, want ~%.2f", got, bh.PWarm)
	}
}

func TestStreamingLinesAreFresh(t *testing.T) {
	b := ByName("libquantum")
	bh := b.Behaviors[0]
	s := bh.Generate(b.StreamSeed(0), SampleParams{Accesses: 20000, WarmupAccesses: 0})
	seen := make(map[uint32]int)
	boundary := uint32(bh.HotLines + bh.WarmLines)
	for _, a := range s.Measured {
		if a.Line >= boundary {
			seen[a.Line]++
		}
	}
	for line, count := range seen {
		if count > 1 {
			t.Fatalf("streamed line %d repeated %d times before wrap", line, count)
		}
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	b := ByName("gcc")
	for i := 0; i < 100; i++ {
		j1, j2 := b.Jitter(i), b.Jitter(i)
		if j1 != j2 {
			t.Fatalf("jitter not deterministic at slice %d", i)
		}
		if j1.APKIScale < 0.9 || j1.APKIScale > 1.1 {
			t.Fatalf("APKI jitter out of bounds: %v", j1.APKIScale)
		}
		if j1.HotScale < 0.85 || j1.HotScale > 1.15 {
			t.Fatalf("hot jitter out of bounds: %v", j1.HotScale)
		}
	}
}

func TestSliceBehaviorSpecAppliesJitter(t *testing.T) {
	b := ByName("gcc")
	base := b.Behaviors[b.SliceBehavior[0]]
	spec := b.SliceBehaviorSpec(0)
	if spec.APKI == base.APKI && spec.HotLines == base.HotLines && spec.IlpIPC == base.IlpIPC {
		t.Fatal("jitter had no effect (statistically impossible)")
	}
	if spec.HotLines < 1 {
		t.Fatal("hot lines must stay positive")
	}
}

func TestSignatureIsDistribution(t *testing.T) {
	for _, b := range Suite() {
		for i := 0; i < b.NumSlices(); i += 97 {
			sig := b.SliceSignature(i)
			sum := 0.0
			for _, v := range sig {
				if v < 0 {
					t.Fatalf("%s slice %d: negative signature component", b.Name, i)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s slice %d: signature sums to %v", b.Name, i, sum)
			}
		}
	}
}

func TestSignaturesSeparateBehaviors(t *testing.T) {
	b := ByName("gcc")
	// Distance between slices of the same behaviour must be much smaller
	// than between different behaviours.
	dist := func(a, c [NumSignatureBlocks]float64) float64 {
		var d float64
		for i := range a {
			diff := a[i] - c[i]
			d += diff * diff
		}
		return math.Sqrt(d)
	}
	// slices 0..89 are behaviour 0; 90..199 behaviour 1 (per suite segments)
	same := dist(b.SliceSignature(0), b.SliceSignature(5))
	diff := dist(b.SliceSignature(0), b.SliceSignature(95))
	if same >= diff {
		t.Fatalf("intra-phase distance %v >= inter-phase distance %v", same, diff)
	}
}

func TestScaleToSlice(t *testing.T) {
	s := &Stream{WindowInstr: 2_000_000}
	if got := s.ScaleToSlice(); got != 50 {
		t.Fatalf("ScaleToSlice = %v, want 50", got)
	}
	empty := &Stream{}
	if empty.ScaleToSlice() != 0 {
		t.Fatal("empty stream should scale to 0")
	}
}

func TestBurstFractionBounds(t *testing.T) {
	f := func(pb, bl float64) bool {
		b := Behavior{PBurst: math.Abs(pb), BurstLen: math.Abs(bl)}
		fr := b.burstFraction()
		return fr >= 0 && fr <= 0.95
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGenerateAlwaysWellFormed(t *testing.T) {
	f := func(seed uint64, apkiRaw, hotRaw uint16) bool {
		bh := Behavior{
			Name:   "q",
			IlpIPC: 2, BranchMPKI: 1,
			APKI:     0.2 + float64(apkiRaw%300)/10,
			HotLines: 1 + int(hotRaw%5000),
			PHot:     0.5, PWarm: 0,
			PBurst: 0.3, BurstLen: 5, BurstGap: 8, PDep: 0.2,
		}
		s := bh.Generate(seed, SampleParams{Accesses: 300, WarmupAccesses: 50})
		if len(s.Measured) != 300 || len(s.Warmup) != 50 {
			return false
		}
		return s.WindowInstr >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalInstructions(t *testing.T) {
	b := ByName("lbm")
	want := float64(b.NumSlices()) * 100e6
	if b.TotalInstructions() != want {
		t.Fatalf("TotalInstructions = %v, want %v", b.TotalInstructions(), want)
	}
}

func TestStreamSeedsDifferAcrossBehaviors(t *testing.T) {
	b := ByName("gcc")
	s0, s1 := b.StreamSeed(0), b.StreamSeed(1)
	if s0 == s1 {
		t.Fatal("behaviour stream seeds collide")
	}
	_ = stats.NewRNG(s0) // seeds must be valid RNG inputs
}

// TotalInstructions returns the benchmark's full dynamic instruction count.
func (b *Benchmark) TotalInstructions() float64 {
	return float64(b.NumSlices()) * SliceInstructions
}

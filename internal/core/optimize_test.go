package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"qosrma/internal/arch"
	"qosrma/internal/stats"
)

func TestBuildCurveBaselineAlwaysFeasible(t *testing.T) {
	// With zero slack the QoS target is the model's own baseline
	// prediction, so the baseline setting itself must be feasible at the
	// baseline way count.
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 3e5, 12), 2)
	curve := p.BuildCurve(st, LocalOptions{MaxWays: 13})
	o := curve.Options[sys.BaselineWays()]
	if !o.Feasible {
		t.Fatal("baseline way count infeasible")
	}
	if o.FreqIdx > sys.BaselineFreqIdx {
		t.Fatalf("fmin at baseline ways (%d) above the baseline frequency (%d)",
			o.FreqIdx, sys.BaselineFreqIdx)
	}
}

func TestBuildCurveFminDecreasesWithWays(t *testing.T) {
	// A cache-sensitive profile needs less frequency when given more ways.
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 20, missProfile(16, 3e6, 3e5, 14), 2)
	curve := p.BuildCurve(st, LocalOptions{MaxWays: 13})
	prev := len(sys.DVFS)
	for w := 2; w <= 13; w++ {
		o := curve.Options[w]
		if !o.Feasible {
			continue
		}
		if o.FreqIdx > prev {
			t.Fatalf("fmin increased with more ways at w=%d", w)
		}
		prev = o.FreqIdx
	}
}

func TestBuildCurveRespectsWayBounds(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 10, missProfile(16, 1e6, 2e5, 10), 2)
	curve := p.BuildCurve(st, LocalOptions{MaxWays: 13})
	if !math.IsInf(curve.EPI(0), 1) {
		t.Fatal("w=0 must be infeasible")
	}
	for w := 14; w <= 16; w++ {
		if !math.IsInf(curve.EPI(w), 1) {
			t.Fatalf("w=%d beyond MaxWays must be infeasible", w)
		}
	}
	if !math.IsInf(curve.EPI(-1), 1) || !math.IsInf(curve.EPI(99), 1) {
		t.Fatal("out-of-range EPI must be +Inf")
	}
}

func TestBuildCurvePinnedFrequency(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 3e5, 12), 2)
	curve := p.BuildCurve(st, LocalOptions{
		Freqs:   []int{sys.BaselineFreqIdx},
		MaxWays: 13,
	})
	for w := 1; w <= 13; w++ {
		if o := curve.Options[w]; o.Feasible && o.FreqIdx != sys.BaselineFreqIdx {
			t.Fatalf("pinned frequency violated at w=%d", w)
		}
	}
}

func TestBuildCurveMinEnergyNeverWorseThanFmin(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model2)
	st := fakeStats(sys, 2.5, 15, missProfile(16, 2e6, 3e5, 12), 2)
	fmin := p.BuildCurve(st, LocalOptions{MaxWays: 13})
	all := p.BuildCurve(st, LocalOptions{MaxWays: 13, MinEnergyFreq: true})
	for w := 1; w <= 13; w++ {
		if all.EPI(w) > fmin.EPI(w)+1e-15 {
			t.Fatalf("min-energy search worse than fmin at w=%d", w)
		}
	}
}

func TestRM3CurveAtLeastAsGoodAsRM2Curve(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	p := testPredictor(sys, Model3)
	st := fakeStats(sys, 2.5, 18, missProfile(16, 2.5e6, 3e5, 12), 2)
	rm2 := p.BuildCurve(st, LocalOptions{
		Sizes: []arch.CoreSize{sys.BaselineSize}, MaxWays: 13})
	rm3 := p.BuildCurve(st, LocalOptions{
		Sizes:         []arch.CoreSize{arch.SizeSmall, arch.SizeMedium, arch.SizeLarge},
		MinEnergyFreq: true,
		MaxWays:       13,
	})
	for w := 1; w <= 13; w++ {
		if rm3.EPI(w) > rm2.EPI(w)+1e-15 {
			t.Fatalf("RM3 curve worse than RM2 at w=%d: %v vs %v",
				w, rm3.EPI(w), rm2.EPI(w))
		}
	}
}

// randomCurve builds a curve with random finite values in [1,assoc] ways.
func randomCurve(rng *stats.RNG, assoc, maxWays int) *Curve {
	c := &Curve{Options: make([]Option, assoc+1)}
	for w := range c.Options {
		c.Options[w] = Option{EPI: math.Inf(1)}
	}
	for w := 1; w <= maxWays; w++ {
		c.Options[w] = Option{EPI: rng.Float64()*10 + 0.1, Feasible: true}
	}
	return c
}

func TestAllocateWaysMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const assoc = 8
		n := 2 + rng.Intn(2) // 2..3 cores
		curves := make([]*Curve, n)
		for i := range curves {
			curves[i] = randomCurve(rng, assoc, assoc-(n-1))
		}
		alloc, ok := AllocateWaysInto(curves, assoc, new(WaysScratch))
		if !ok {
			return false
		}
		got := TotalEPI(curves, alloc)

		// Brute force.
		best := math.Inf(1)
		var rec func(core, remaining int, sum float64)
		rec = func(core, remaining int, sum float64) {
			if core == n-1 {
				if e := curves[core].EPI(remaining); !math.IsInf(e, 1) {
					if sum+e < best {
						best = sum + e
					}
				}
				return
			}
			for w := 1; w <= remaining-(n-core-1); w++ {
				if e := curves[core].EPI(w); !math.IsInf(e, 1) {
					rec(core+1, remaining-w, sum+e)
				}
			}
		}
		rec(0, assoc, 0)
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateWaysUsesAllWays(t *testing.T) {
	rng := stats.NewRNG(7)
	curves := []*Curve{
		randomCurve(rng, 16, 13), randomCurve(rng, 16, 13),
		randomCurve(rng, 16, 13), randomCurve(rng, 16, 13),
	}
	alloc, ok := AllocateWaysInto(curves, 16, new(WaysScratch))
	if !ok {
		t.Fatal("allocation failed")
	}
	sum := 0
	for _, w := range alloc {
		if w < 1 {
			t.Fatalf("core got %d ways", w)
		}
		sum += w
	}
	if sum != 16 {
		t.Fatalf("allocation %v sums to %d, want 16", alloc, sum)
	}
}

func TestAllocateWaysInfeasible(t *testing.T) {
	c := &Curve{Options: make([]Option, 9)}
	for w := range c.Options {
		c.Options[w] = Option{EPI: math.Inf(1)}
	}
	if _, ok := AllocateWaysInto([]*Curve{c, c}, 8, new(WaysScratch)); ok {
		t.Fatal("expected infeasibility")
	}
	if _, ok := AllocateWaysInto(nil, 8, new(WaysScratch)); ok {
		t.Fatal("empty input should be infeasible")
	}
}

// allocateWaysReference is the way-allocation DP as it stood before the
// row kernel: every way count of every stage, +Inf terms skipped by test.
// AllocateWaysInto must match it bit for bit.
func allocateWaysReference(curves []*Curve, totalWays int) ([]int, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	rowLen := totalWays + 1
	combined := make([]float64, rowLen)
	next := make([]float64, rowLen)
	choices := make([]int, n*rowLen)
	alloc := make([]int, n)
	for W := range combined {
		combined[W] = curves[0].EPI(W)
	}
	for i := 1; i < n; i++ {
		choice := choices[i*rowLen : (i+1)*rowLen]
		for W := 0; W <= totalWays; W++ {
			next[W] = math.Inf(1)
			choice[W] = -1
			for wi := 0; wi <= W; wi++ {
				e := curves[i].EPI(wi)
				if math.IsInf(e, 1) {
					continue
				}
				prev := combined[W-wi]
				if math.IsInf(prev, 1) {
					continue
				}
				if total := prev + e; total < next[W] {
					next[W] = total
					choice[W] = wi
				}
			}
		}
		combined, next = next, combined
	}
	if math.IsInf(combined[totalWays], 1) {
		return nil, false
	}
	W := totalWays
	for i := n - 1; i >= 1; i-- {
		wi := choices[i*rowLen+W]
		alloc[i] = wi
		W -= wi
	}
	alloc[0] = W
	return alloc, true
}

// FuzzAllocateWaysEquivalence: AllocateWaysInto returns the reference
// loop's (alloc, ok) for any seed's random curve set.
func FuzzAllocateWaysEquivalence(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := stats.NewRNG(seed)
		const assoc = 8
		n := 2 + rng.Intn(3)
		curves := make([]*Curve, n)
		for i := range curves {
			curves[i] = randomCurve(rng, assoc, assoc-(n-1))
		}
		want, wantOK := allocateWaysReference(curves, assoc)
		got, gotOK := AllocateWaysInto(curves, assoc, new(WaysScratch))
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("got %v ok=%v, reference %v ok=%v", got, gotOK, want, wantOK)
		}
	})
}

// holeyCurve builds a curve of up to assoc+1 options (short Options
// included) whose EPIs mix finite values, ties, +Inf holes and, rarely,
// -Inf and NaN; kind 0 makes the whole row infeasible.
func holeyCurve(rng *stats.RNG, assoc int) *Curve {
	c := &Curve{Options: make([]Option, 1+rng.Intn(assoc+1))}
	kind := rng.Intn(8)
	for w := range c.Options {
		e := math.Inf(1)
		switch r := rng.Intn(40); {
		case kind == 0:
		case r < 8: // +Inf hole
		case r < 14:
			e = float64(1 + rng.Intn(4)) // ties
		case r == 14:
			e = math.Inf(-1)
		case r == 15:
			e = math.NaN()
		default:
			e = rng.Float64()*10 + 0.1
		}
		c.Options[w] = Option{EPI: e, Feasible: !math.IsInf(e, 1)}
	}
	return c
}

// TestAllocateWaysIntoMatchesReference: the row kernel returns the
// reference loop's (alloc, ok) on random curve sets of 1..8 cores at 16
// and 32 ways, through +Inf holes, short Options, infeasible rows, -Inf
// and NaN, with one scratch reused across widths.
func TestAllocateWaysIntoMatchesReference(t *testing.T) {
	rng := stats.NewRNG(29)
	var ws WaysScratch
	feasible, infeasible := 0, 0
	for trial := 0; trial < 4000; trial++ {
		assoc := 16 << rng.Intn(2)
		curves := make([]*Curve, 1+rng.Intn(8))
		for i := range curves {
			if rng.Intn(3) == 0 {
				curves[i] = randomCurve(rng, assoc, 1+rng.Intn(assoc))
			} else {
				curves[i] = holeyCurve(rng, assoc)
			}
		}
		want, wantOK := allocateWaysReference(curves, assoc)
		got, gotOK := AllocateWaysInto(curves, assoc, &ws)
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("trial %d: got %v ok=%v, reference %v ok=%v", trial, got, gotOK, want, wantOK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d core %d: got %v, reference %v", trial, i, got, want)
			}
		}
		if wantOK {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible < 100 || infeasible < 100 {
		t.Fatalf("%d feasible and %d infeasible trials, want both covered", feasible, infeasible)
	}
}

func TestSettingsFromCurves(t *testing.T) {
	rng := stats.NewRNG(9)
	curves := []*Curve{randomCurve(rng, 8, 7), randomCurve(rng, 8, 7)}
	curves[0].Options[3] = Option{Size: arch.SizeLarge, FreqIdx: 5, EPI: 0.5, Feasible: true}
	s := SettingsFromCurvesInto(nil, curves, []int{3, 5})
	if s[0].Ways != 3 || s[0].Size != arch.SizeLarge || s[0].FreqIdx != 5 {
		t.Fatalf("settings wrong: %+v", s[0])
	}
	if s[1].Ways != 5 {
		t.Fatalf("settings wrong: %+v", s[1])
	}
}

// naiveCurve is the reference local optimization: the original unhoisted
// search that evaluates Predictor.IPS and Predictor.EPI per candidate.
// BuildCurve must match it bit-for-bit (the hoisted arithmetic is required
// to stay term-for-term identical to the model methods).
func naiveCurve(p *Predictor, st *IntervalStats, opt LocalOptions) *Curve {
	assoc := p.Sys.LLC.Assoc
	if opt.MaxWays <= 0 || opt.MaxWays > assoc {
		opt.MaxWays = assoc
	}
	freqs := opt.Freqs
	if freqs == nil {
		freqs = make([]int, len(p.Sys.DVFS))
		for i := range freqs {
			freqs[i] = i
		}
	}
	sizes := opt.Sizes
	if sizes == nil {
		sizes = []arch.CoreSize{p.Sys.BaselineSize}
	}
	target := p.QoSTargetIPS(st, opt.Slack)
	curve := &Curve{Options: make([]Option, assoc+1)}
	for w := 0; w <= assoc; w++ {
		curve.Options[w] = Option{EPI: math.Inf(1)}
		if w < 1 || w > opt.MaxWays {
			continue
		}
		best := &curve.Options[w]
		for _, size := range sizes {
			for _, fi := range freqs {
				s := arch.Setting{Size: size, FreqIdx: fi, Ways: w}
				if p.IPS(st, s) < target {
					continue
				}
				epi := p.EPI(st, s)
				if epi < best.EPI {
					*best = Option{Size: size, FreqIdx: fi, EPI: epi, Feasible: true}
				}
				if !opt.MinEnergyFreq {
					break
				}
			}
		}
	}
	return curve
}

// TestBuildCurveMatchesNaiveSearch locks in the bit-equality of the
// hoisted BuildCurve against the naive per-candidate model evaluation,
// across both frequency rules, all size sets, slack values, and a spread
// of synthetic profiles.
func TestBuildCurveMatchesNaiveSearch(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	rng := stats.NewRNG(1234)
	sizeSets := [][]arch.CoreSize{
		nil,
		{sys.BaselineSize},
		{arch.SizeSmall, arch.SizeMedium, arch.SizeLarge},
	}
	for trial := 0; trial < 40; trial++ {
		ilp := 1 + rng.Float64()*4
		apki := rng.Float64() * 30
		total := 1e5 + rng.Float64()*5e6
		floor := total * rng.Float64() * 0.5
		knee := 2 + rng.Intn(12)
		mlp := 1 + rng.Float64()*4
		st := fakeStats(sys, ilp, apki, missProfile(sys.LLC.Assoc, total, floor, knee), mlp)
		for kind := Model1; kind <= Model3; kind++ {
			p := testPredictor(sys, kind)
			opt := LocalOptions{
				Sizes:         sizeSets[trial%len(sizeSets)],
				MinEnergyFreq: trial%2 == 0,
				Slack:         float64(trial%3) * 0.2,
				MaxWays:       sys.LLC.Assoc - (sys.NumCores - 1),
			}
			want := naiveCurve(p, st, opt)
			got := p.BuildCurve(st, opt)
			for w := range want.Options {
				if got.Options[w] != want.Options[w] {
					t.Fatalf("trial %d kind %v w=%d: hoisted %+v != naive %+v",
						trial, kind, w, got.Options[w], want.Options[w])
				}
			}
		}
	}
}

package core

import (
	"math"
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
		alloc, ok := AllocateWays(curves, assoc)
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
	alloc, ok := AllocateWays(curves, 16)
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
	if _, ok := AllocateWays([]*Curve{c, c}, 8); ok {
		t.Fatal("expected infeasibility")
	}
	if _, ok := AllocateWays(nil, 8); ok {
		t.Fatal("empty input should be infeasible")
	}
}

func TestSettingsFromCurves(t *testing.T) {
	rng := stats.NewRNG(9)
	curves := []*Curve{randomCurve(rng, 8, 7), randomCurve(rng, 8, 7)}
	curves[0].Options[3] = Option{Size: arch.SizeLarge, FreqIdx: 5, EPI: 0.5, Feasible: true}
	s := SettingsFromCurves(curves, []int{3, 5})
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

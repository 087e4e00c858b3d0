package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedIndependence(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSeedFromDistinctLabels(t *testing.T) {
	s1 := SeedFrom(7, "alpha")
	s2 := SeedFrom(7, "beta")
	s3 := SeedFrom(8, "alpha")
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Fatalf("seed derivation collided: %v %v %v", s1, s2, s3)
	}
	if s1 != SeedFrom(7, "alpha") {
		t.Fatal("SeedFrom not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64MeanApproximatelyHalf(t *testing.T) {
	r := NewRNG(4)
	var run Running
	for i := 0; i < 100000; i++ {
		run.Add(r.Float64())
	}
	if math.Abs(run.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", run.Mean())
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(5)
	var run Running
	for i := 0; i < 100000; i++ {
		run.Add(r.Norm(10, 2))
	}
	if math.Abs(run.Mean()-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", run.Mean())
	}
	if math.Abs(run.StdDev()-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", run.StdDev())
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	var run Running
	for i := 0; i < 100000; i++ {
		run.Add(r.Exp(3))
	}
	if math.Abs(run.Mean()-3) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~3", run.Mean())
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(7)
	p := 0.25
	var run Running
	for i := 0; i < 100000; i++ {
		run.Add(float64(r.Geometric(p)))
	}
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(run.Mean()-want) > 0.1 {
		t.Fatalf("geometric mean = %v, want ~%v", run.Mean(), want)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(8)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn did not cover range, saw %d values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := NewRNG(10)
	xs := make([]float64, 1000)
	var run Running
	for i := range xs {
		xs[i] = r.Norm(0, 1)
		run.Add(xs[i])
	}
	if math.Abs(run.Mean()-Mean(xs)) > 1e-9 {
		t.Fatalf("running mean %v != batch mean %v", run.Mean(), Mean(xs))
	}
	if math.Abs(run.StdDev()-StdDev(xs)) > 1e-9 {
		t.Fatalf("running stddev %v != batch stddev %v", run.StdDev(), StdDev(xs))
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestQuickMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

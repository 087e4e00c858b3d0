package simpoint

import (
	"math"
	"slices"
	"testing"

	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

func TestAnalyzeRecoversPhases(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "lbm", "perlbench"} {
		b := trace.ByName(name)
		an := Analyze(b, DefaultOptions())
		if an.NumPhases < 1 || an.NumPhases > DefaultOptions().MaxPhases {
			t.Fatalf("%s: phases = %d", name, an.NumPhases)
		}
		if p := an.Purity(); p < 0.95 {
			t.Errorf("%s: clustering purity %.3f < 0.95 (phases=%d, truth=%d)",
				name, p, an.NumPhases, len(b.Behaviors))
		}
	}
}

func TestAnalyzeSinglePhaseProgram(t *testing.T) {
	b := trace.ByName("lbm") // one behaviour
	an := Analyze(b, DefaultOptions())
	if an.NumPhases != 1 {
		t.Fatalf("lbm phases = %d, want 1 (single-behaviour program)", an.NumPhases)
	}
	if an.Weight[0] != 1 {
		t.Fatalf("weight = %v, want 1", an.Weight[0])
	}
}

func TestWeightsSumToOne(t *testing.T) {
	for _, b := range trace.Suite() {
		an := Analyze(b, DefaultOptions())
		var sum float64
		for _, w := range an.Weight {
			if w < 0 {
				t.Fatalf("%s: negative weight", b.Name)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: weights sum to %v", b.Name, sum)
		}
	}
}

func TestPhaseTraceCoversAllSlices(t *testing.T) {
	b := trace.ByName("gcc")
	an := Analyze(b, DefaultOptions())
	if len(an.PhaseTrace) != b.NumSlices() {
		t.Fatalf("trace length %d != slices %d", len(an.PhaseTrace), b.NumSlices())
	}
	for i, p := range an.PhaseTrace {
		if p < 0 || p >= an.NumPhases {
			t.Fatalf("slice %d assigned to phase %d of %d", i, p, an.NumPhases)
		}
	}
}

func TestRepresentativeBelongsToPhase(t *testing.T) {
	for _, name := range []string{"gcc", "soplex", "mcf"} {
		b := trace.ByName(name)
		an := Analyze(b, DefaultOptions())
		for p := 0; p < an.NumPhases; p++ {
			if an.Weight[p] == 0 {
				continue
			}
			rep := an.Representative[p]
			if rep < 0 || rep >= b.NumSlices() {
				t.Fatalf("%s: representative %d out of range", name, rep)
			}
			if an.PhaseTrace[rep] != p {
				t.Fatalf("%s: representative %d of phase %d belongs to phase %d",
					name, rep, p, an.PhaseTrace[rep])
			}
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	b := trace.ByName("bzip2")
	a1 := Analyze(b, DefaultOptions())
	a2 := Analyze(b, DefaultOptions())
	if a1.NumPhases != a2.NumPhases {
		t.Fatal("phase count differs between runs")
	}
	for i := range a1.PhaseTrace {
		if a1.PhaseTrace[i] != a2.PhaseTrace[i] {
			t.Fatalf("phase trace differs at slice %d", i)
		}
	}
}

func TestOptionsClamping(t *testing.T) {
	b := trace.ByName("lbm")
	an := Analyze(b, Options{MaxPhases: 0, Iterations: 0, Seed: 1, BICThreshold: 5})
	if an.NumPhases != 1 {
		t.Fatalf("clamped analysis produced %d phases", an.NumPhases)
	}
}

func TestPhaseOfSlice(t *testing.T) {
	b := trace.ByName("gcc")
	an := Analyze(b, DefaultOptions())
	if an.PhaseOfSlice(0) != an.PhaseTrace[0] {
		t.Fatal("PhaseOfSlice mismatch")
	}
}

// lloydReference is the plain Lloyd loop, the bit-exact reference for
// hamerly: every iteration scans every centroid for every point and
// recomputes every centroid. It refines cents in place and returns the
// assignment.
func lloydReference(points, cents [][]float64, iters int) []int {
	k := len(cents)
	dim := len(points[0])
	assign := make([]int, len(points))
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bd := 0, math.Inf(1)
			for c := range cents {
				if d, below := sqDistBelow(p, cents[c], bd); below {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		for c := range cents {
			for j := range cents[c] {
				cents[c][j] = 0
			}
		}
		counts := make([]int, k)
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j := 0; j < dim; j++ {
				cents[c][j] += p[j]
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				continue // an empty cluster's centroid stays zeroed
			}
			for j := range cents[c] {
				cents[c][j] /= float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	return assign
}

func cloneCents(cents [][]float64) [][]float64 {
	out := make([][]float64, len(cents))
	for c := range cents {
		out[c] = slices.Clone(cents[c])
	}
	return out
}

// assertSameClustering fails unless hamerly and lloydReference, each run
// from its own copy of cents, agree on every assignment and on every
// centroid bit. It returns the reference's result.
func assertSameClustering(t *testing.T, what string, points, cents [][]float64, iters int) ([]int, [][]float64) {
	t.Helper()
	hc, lc := cloneCents(cents), cloneCents(cents)
	ha := hamerly(points, hc, iters)
	la := lloydReference(points, lc, iters)
	if !slices.Equal(ha, la) {
		t.Fatalf("%s: assignment %v, Lloyd %v", what, ha, la)
	}
	for c := range lc {
		for j := range lc[c] {
			if math.Float64bits(hc[c][j]) != math.Float64bits(lc[c][j]) {
				t.Fatalf("%s: centroid %d[%d] = %v, Lloyd %v", what, c, j, hc[c][j], lc[c][j])
			}
		}
	}
	return la, lc
}

// TestHamerlyMatchesLloydOnSuite runs every k-means refinement Analyze
// performs on the suite (every benchmark, k = 1..MaxPhases, the real seeds)
// through both loops, then checks the whole analysis against one built on
// the reference.
func TestHamerlyMatchesLloydOnSuite(t *testing.T) {
	opt := DefaultOptions()
	for _, b := range trace.Suite() {
		runs := 0
		ref := analyze(b, opt, func(points, cents [][]float64, iters int) []int {
			runs++
			assign, lc := assertSameClustering(t, b.Name, points, cents, iters)
			copy(cents, lc)
			return assign
		})
		if runs != opt.MaxPhases {
			t.Fatalf("%s: %d k-means runs, want %d", b.Name, runs, opt.MaxPhases)
		}
		an := Analyze(b, opt)
		if an.NumPhases != ref.NumPhases ||
			!slices.Equal(an.PhaseTrace, ref.PhaseTrace) ||
			!slices.Equal(an.Representative, ref.Representative) {
			t.Fatalf("%s: analysis differs from the Lloyd reference", b.Name)
		}
		for p := range ref.Weight {
			if math.Float64bits(an.Weight[p]) != math.Float64bits(ref.Weight[p]) {
				t.Fatalf("%s: weight %d = %v, Lloyd %v", b.Name, p, an.Weight[p], ref.Weight[p])
			}
		}
	}
}

// TestHamerlyMatchesLloydOnFixtures pins the paths the suite never takes:
// duplicate points and centroids, exact ties, and clusters that empty.
func TestHamerlyMatchesLloydOnFixtures(t *testing.T) {
	pts := func(xs ...float64) [][]float64 {
		out := make([][]float64, len(xs))
		for i, x := range xs {
			out[i] = []float64{x}
		}
		return out
	}
	cases := []struct {
		name          string
		points, cents [][]float64
	}{
		{"duplicates", [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}, {5, 5}},
			[][]float64{{1, 1}, {1, 1}, {5, 5}}},
		// 5 sits between 0 and 8 closer to 8; after one recompute the
		// centroids are 1 and 9, a tie the lower index must win.
		{"tie after a move", pts(0, 2, 5, 13), pts(0, 8)},
		// Nothing is nearest 100, so that cluster empties to the zero
		// vector, then ties with 0 and 1 and at last captures 0.
		{"cluster empties", pts(0, 1, 2, 3), pts(0, 1, 100)},
	}
	for _, tc := range cases {
		assertSameClustering(t, tc.name, tc.points, tc.cents, 40)
	}

	// The emptied centroid is zeroed, not left where it was.
	cents := pts(0, 1, 100)
	hamerly(pts(0, 1, 2, 3), cents, 1)
	if cents[2][0] != 0 {
		t.Fatalf("empty cluster's centroid = %v, want 0", cents[2][0])
	}

	// Random small-integer clouds: ties, duplicates and empty clusters
	// everywhere, in a dimension past sqDistBelow's 8-term block.
	rng := stats.NewRNG(7)
	for trial := 0; trial < 500; trial++ {
		n, k, dim := 2+rng.Intn(30), 1+rng.Intn(6), 1+rng.Intn(12)
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = float64(rng.Intn(3))
			}
		}
		cents := make([][]float64, k)
		for c := range cents {
			cents[c] = slices.Clone(points[rng.Intn(n)])
		}
		assertSameClustering(t, "random", points, cents, 40)
	}
}

// PhaseOfSlice returns the phase id for slice i.
func (a *Analysis) PhaseOfSlice(i int) int { return a.PhaseTrace[i] }

// Purity measures how well the recovered phases match the generative
// ground-truth behaviours (fraction of slices whose cluster's majority
// behaviour equals their own behaviour). Used by tests; the algorithms
// under study never see ground truth.
func (a *Analysis) Purity() float64 {
	// majority behaviour per cluster
	counts := make([]map[int]int, a.NumPhases)
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for i, p := range a.PhaseTrace {
		counts[p][a.Bench.SliceBehavior[i]]++
	}
	majority := make([]int, a.NumPhases)
	for p, m := range counts {
		best, bestN := -1, -1
		for b, n := range m {
			if n > bestN {
				best, bestN = b, n
			}
		}
		majority[p] = best
	}
	correct := 0
	for i, p := range a.PhaseTrace {
		if a.Bench.SliceBehavior[i] == majority[p] {
			correct++
		}
	}
	return float64(correct) / float64(len(a.PhaseTrace))
}

// Package simpoint reimplements the SimPoint phase-analysis methodology
// (Sherwood et al., ASPLOS 2002) used in the thesis' simulation framework:
// a program's instruction stream is divided into fixed-size slices, each
// slice is summarized by a basic-block-vector-like signature, the slices are
// clustered with k-means, and one representative slice per cluster ("phase")
// is selected for detailed simulation. The analysis also emits per-phase
// weights and the phase trace — the sequence of phases the full execution
// visits — which drives the co-phase RMA simulator.
package simpoint

import (
	"fmt"
	"math"

	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

// Analysis is the result of running SimPoint on one benchmark.
type Analysis struct {
	Bench     *trace.Benchmark
	NumPhases int
	// Representative[p] is the slice index chosen to represent phase p.
	Representative []int
	// Weight[p] is the fraction of slices belonging to phase p.
	Weight []float64
	// PhaseTrace[i] is the phase id of slice i.
	PhaseTrace []int
}

// Options controls the clustering.
type Options struct {
	MaxPhases  int    // upper bound on k (SimPoint's maxK)
	Iterations int    // k-means iterations per k
	Seed       uint64 // base seed for k-means++ initialization
	// BICThreshold selects the smallest k whose BIC score reaches this
	// fraction of the best score over all k (SimPoint default 0.9).
	BICThreshold float64
}

// DefaultOptions returns the settings used by the experimental methodology.
func DefaultOptions() Options {
	return Options{MaxPhases: 8, Iterations: 40, Seed: 0x51309, BICThreshold: 0.9}
}

// Analyze clusters the benchmark's slices into phases.
func Analyze(b *trace.Benchmark, opt Options) *Analysis {
	return analyze(b, opt, hamerly)
}

// analyze is Analyze with the k-means refinement step as a parameter, so
// tests can run the plain Lloyd reference through the same pipeline.
func analyze(b *trace.Benchmark, opt Options, refine func(points, cents [][]float64, iters int) []int) *Analysis {
	n := b.NumSlices()
	if n == 0 {
		panic("simpoint: benchmark has no slices")
	}
	if opt.MaxPhases < 1 {
		opt.MaxPhases = 1
	}
	if opt.MaxPhases > n {
		opt.MaxPhases = n
	}
	if opt.Iterations < 1 {
		opt.Iterations = 1
	}
	if opt.BICThreshold <= 0 || opt.BICThreshold > 1 {
		opt.BICThreshold = 0.9
	}

	// One contiguous backing array for all signatures: the k-means inner
	// loops then stream sequential memory instead of chasing per-slice
	// allocations.
	backing := make([]float64, n*trace.NumSignatureBlocks)
	points := make([][]float64, n)
	for i := 0; i < n; i++ {
		sig := b.SliceSignature(i)
		row := backing[i*trace.NumSignatureBlocks : (i+1)*trace.NumSignatureBlocks]
		copy(row, sig[:])
		points[i] = row
	}

	type kResult struct {
		assign []int
		cents  [][]float64
		bic    float64
	}
	results := make([]kResult, 0, opt.MaxPhases)
	best := math.Inf(-1)
	for k := 1; k <= opt.MaxPhases; k++ {
		seed := stats.SeedFrom(opt.Seed, fmt.Sprintf("%s/k=%d", b.Name, k))
		cents := seedCentroids(points, k, seed)
		assign := refine(points, cents, opt.Iterations)
		bic := bicScore(points, assign, cents)
		results = append(results, kResult{assign, cents, bic})
		if bic > best {
			best = bic
		}
	}
	chosen := results[len(results)-1]
	for _, r := range results {
		if r.bic >= opt.BICThreshold*best || (best < 0 && r.bic >= best/opt.BICThreshold) {
			chosen = r
			break
		}
	}

	k := len(chosen.cents)
	an := &Analysis{
		Bench:          b,
		NumPhases:      k,
		Representative: make([]int, k),
		Weight:         make([]float64, k),
		PhaseTrace:     chosen.assign,
	}
	// Representative: slice nearest to its cluster centroid.
	bestDist := make([]float64, k)
	for p := range bestDist {
		bestDist[p] = math.Inf(1)
		an.Representative[p] = -1
	}
	counts := make([]int, k)
	for i, p := range chosen.assign {
		counts[p]++
		d := sqDist(points[i], chosen.cents[p])
		if d < bestDist[p] {
			bestDist[p] = d
			an.Representative[p] = i
		}
	}
	for p := 0; p < k; p++ {
		an.Weight[p] = float64(counts[p]) / float64(n)
		if an.Representative[p] < 0 {
			// Empty cluster (possible when k exceeds natural structure):
			// collapse onto phase 0's representative with zero weight.
			an.Representative[p] = an.Representative[0]
		}
	}
	return an
}

// boundSlack is the relative safety margin of hamerly's distance bounds.
// Rounding in a squared distance over a few dozen terms is below 1e-14
// relative, so a bound that proves a strict win by this margin proves it
// for the computed distances too; a tie or near-tie never passes and gets
// the exact scan.
const boundSlack = 1e-9

// seedCentroids picks k initial centroids by k-means++ seeding. d2[i] is
// maintained incrementally as the minimum squared distance to the
// centroids chosen so far: folding in each new centroid with the same
// left-to-right min as a full rescan keeps the values (and therefore the
// seeded centroids) bit-identical to the original O(k²n) recomputation.
func seedCentroids(points [][]float64, k int, seed uint64) [][]float64 {
	n := len(points)
	rng := stats.NewRNG(seed)
	cents := make([][]float64, 0, k)
	first := rng.Intn(n)
	cents = append(cents, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for i, p := range points {
		d2[i] = sqDist(p, cents[0])
	}
	for len(cents) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		cents = append(cents, append([]float64(nil), points[next]...))
		newest := cents[len(cents)-1]
		for i, p := range points {
			if dd := sqDist(p, newest); dd < d2[i] {
				d2[i] = dd
			}
		}
	}
	return cents
}

// hamerly runs up to iters Lloyd iterations from cents (updated in place)
// and returns the final assignment, skipping distance evaluations with
// Hamerly's triangle-inequality bounds. It is exact: every assignment,
// every centroid bit and the iteration count equal those of a plain Lloyd
// loop that scans every centroid for every point (lowest index wins a
// tie), recomputes every centroid from its members in point order, zeroes
// the centroid of an empty cluster, and stops after the first iteration
// that moves no point.
func hamerly(points, cents [][]float64, iters int) []int {
	n, k, dim := len(points), len(cents), len(points[0])
	assign := make([]int, n)
	// upper[i] bounds from above the distance from point i to its own
	// centroid, lower[i] from below its distance to every other centroid.
	// Both are Euclidean (not squared) and loosened by boundSlack.
	upper := make([]float64, n)
	lower := make([]float64, n)
	counts := make([]int, k)
	counts[0] = n
	moved := make([]bool, k) // membership changed this iteration
	shift := make([]float64, k)
	prev := make([][]float64, k) // centroids before the recompute
	for c := range prev {
		prev[c] = make([]float64, dim)
	}
	for it := 0; it < iters; it++ {
		changed := false
		for c := range moved {
			moved[c] = it == 0 // the seeds are no cluster's mean yet
		}
		for i, p := range points {
			a := assign[i]
			if it > 0 && upper[i] < lower[i] {
				continue
			}
			// Tighten the upper bound to the exact distance, and test
			// again before scanning the other centroids.
			da, _ := sqDistBelow(p, cents[a], math.Inf(1))
			if it > 0 {
				upper[i] = math.Sqrt(da) * (1 + boundSlack)
				if upper[i] < lower[i] {
					continue
				}
			}
			best, bd, bd2 := nearest(p, cents, a, da)
			upper[i] = math.Sqrt(bd) * (1 + boundSlack)
			lower[i] = math.Sqrt(bd2) * (1 - boundSlack)
			if best != a {
				assign[i] = best
				counts[a]--
				counts[best]++
				moved[a], moved[best] = true, true
				changed = true
			}
		}
		// Recompute only the centroids whose membership changed: with the
		// same members summed in the same order, a full recompute would
		// reproduce an unchanged centroid's bits, so it keeps them and
		// moves by 0, which leaves the bounds on it tight.
		for c, cent := range cents {
			if moved[c] {
				copy(prev[c], cent)
				clear(cent)
			}
		}
		for i, p := range points {
			if c := assign[i]; moved[c] {
				cent := cents[c]
				p = p[:len(cent)] // lets the compiler drop the bounds check
				for j := range cent {
					cent[j] += p[j]
				}
			}
		}
		var top, second float64 // the two largest shifts
		topC := -1
		for c, cent := range cents {
			shift[c] = 0
			if !moved[c] {
				continue
			}
			// An emptied cluster's centroid stays at the zero vector.
			if counts[c] > 0 {
				for j := range cent {
					cent[j] /= float64(counts[c])
				}
			}
			s := math.Sqrt(sqDist(prev[c], cent))
			shift[c] = s
			if s > top {
				top, second, topC = s, top, c
			} else if s > second {
				second = s
			}
		}
		if !changed {
			break
		}
		// Triangle inequality: a point's own centroid moved at most its
		// shift away, every other centroid at most the largest other
		// shift closer. The slack term absorbs the rounding of the update.
		for i := range points {
			a := assign[i]
			if s := shift[a]; s > 0 {
				upper[i] += s + boundSlack*(upper[i]+s)
			}
			s := top
			if a == topC {
				s = second
			}
			if s > 0 {
				lower[i] -= s + boundSlack*(lower[i]+s)
			}
		}
	}
	return assign
}

// nearest returns the centroid nearest p, the lowest index among equals as
// a full Lloyd scan picks it, with its squared distance bd and the squared
// distance bd2 to the nearest other centroid (+Inf when there is none).
// da is p's squared distance to centroid a, already computed.
func nearest(p []float64, cents [][]float64, a int, da float64) (best int, bd, bd2 float64) {
	bd, bd2 = math.Inf(1), math.Inf(1)
	for c, cent := range cents {
		// A partial sum reaching bd2 proves c neither nearest (bd <= bd2;
		// on a tie the earlier index keeps the win) nor runner-up.
		d, below := da, da < bd2
		if c != a {
			d, below = sqDistBelow(p, cent, bd2)
		}
		if !below {
			continue
		}
		if d < bd {
			best, bd, bd2 = c, d, bd
		} else {
			bd2 = d
		}
	}
	return best, bd, bd2
}

// bicScore computes a Bayesian-information-criterion-style score for a
// clustering (higher is better), following the X-means formulation SimPoint
// uses for model selection.
func bicScore(points [][]float64, assign []int, cents [][]float64) float64 {
	n := len(points)
	k := len(cents)
	dim := len(points[0])
	if n <= k {
		return math.Inf(-1)
	}
	// Pooled variance estimate.
	var ss float64
	for i, p := range points {
		ss += sqDist(p, cents[assign[i]])
	}
	variance := ss / float64(n-k)
	if variance <= 0 {
		variance = 1e-12
	}
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	var loglik float64
	for _, rn := range counts {
		if rn == 0 {
			continue
		}
		rnf := float64(rn)
		loglik += rnf*math.Log(rnf/float64(n)) -
			rnf*float64(dim)/2*math.Log(2*math.Pi*variance) -
			(rnf-1)/2
	}
	params := float64(k) * (float64(dim) + 1)
	return loglik - params/2*math.Log(float64(n))
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// sqDistBelow reports whether the squared distance between a and b is
// strictly below bound, returning the (exact) distance when it is. The
// accumulation order matches sqDist term for term; the early exit only
// skips work once the partial sum — a lower bound, all terms being
// non-negative — already reaches bound, so accept/reject decisions are
// bit-identical to comparing full sqDist values.
func sqDistBelow(a, b []float64, bound float64) (float64, bool) {
	var d float64
	n := len(a)
	for i := 0; i < n; i += 8 {
		end := i + 8
		if end > n {
			end = n
		}
		for j := i; j < end; j++ {
			diff := a[j] - b[j]
			d += diff * diff
		}
		if d >= bound {
			return d, false
		}
	}
	return d, true
}

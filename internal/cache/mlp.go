package cache

import "qosrma/internal/trace"

// MLPResult summarizes the memory-level-parallelism analysis of one miss
// stream for one (core size, way allocation) combination.
type MLPResult struct {
	TotalMisses   int
	LeadingMisses int // misses that contribute full latency to stall time
}

// AnalyzeMLP implements the Paper II MLP-aware ATD extension in software:
// given the access stream, its precomputed stack distances, a way allocation
// w, and the core's ROB size and MSHR count, it detects which misses overlap
// a leading miss and which start a new miss epoch.
//
// A miss overlaps the current leading miss when all hold:
//   - it is independent (no serialized pointer-chase dependence),
//   - it issues within robWindow instructions of the leading miss (both
//     must be in flight in the reorder buffer together), and
//   - fewer than mshrs misses are already outstanding in the epoch.
//
// Otherwise it becomes the new leading miss. The hardware version of this
// heuristic costs under 300 bytes per core (thesis §3.2); here it runs over
// the sampled stream.
//
//qosrma:allow(testonly) per-(core, ways) reference for ProfileStream's fused scan; refsim's and simdb's tests and BenchmarkMLPAnalysis drive it
func AnalyzeMLP(accs []trace.Access, dists []int16, w, robWindow, mshrs int) MLPResult {
	var res MLPResult
	var (
		leadingInstr uint32
		outstanding  int
		haveEpoch    bool
	)
	for i, acc := range accs {
		d := dists[i]
		if d >= 0 && int(d) < w {
			continue // hit at this allocation
		}
		res.TotalMisses++
		overlaps := haveEpoch &&
			!acc.Dep &&
			acc.Instr-leadingInstr <= uint32(robWindow) &&
			outstanding < mshrs
		if overlaps {
			outstanding++
			continue
		}
		res.LeadingMisses++
		leadingInstr = acc.Instr
		outstanding = 1
		haveEpoch = true
	}
	return res
}

package core

import "math"

// FeedbackTable implements the thesis' future-work proposal (Chapter 4):
// replace the Paper II MLP-ATD *hardware* with a software phase table and a
// feedback loop. The dominant realistic-model error of the Paper I scheme
// is the constant-MLP assumption: when an application gains cache ways its
// surviving misses spread out and overlap less, so the measured MLP no
// longer applies to the new allocation and the manager over-commits.
//
// The table learns, per recurring program phase (identified by a quantized
// counter signature), the MLP actually observed at every way allocation the
// manager has visited. Predictions for visited (phase, ways) points then
// use the learned value instead of the constant-MLP extrapolation; only the
// first venture into an unvisited allocation still pays the Model 2 error.
type FeedbackTable struct {
	assoc int
	mlp   map[fbKey][]fbCell
}

// fbKey is the quantized phase signature. Every component must be
// *allocation-invariant* — otherwise changing the partition moves the same
// program phase into a different key and nothing learned ever gets found
// again. LLC access intensity and branch behaviour are properties of the
// program; the ATD miss profile sampled at two fixed reference way counts
// characterizes its locality independent of the current allocation.
type fbKey struct {
	apkiB   int8
	mpkiLoB int8 // misses per kilo-instruction at the low reference ways
	mpkiHiB int8 // ... at the high reference ways
	branchB int8
}

// fbCell is an exponentially weighted estimate of MLP at one way count.
type fbCell struct {
	val float64
	n   int
}

// fbAlpha is the EWMA weight of a new observation.
const fbAlpha = 0.3

// NewFeedbackTable returns an empty table for a cache with the given
// associativity.
func NewFeedbackTable(assoc int) *FeedbackTable {
	return &FeedbackTable{assoc: assoc, mlp: make(map[fbKey][]fbCell)}
}

// logBucket quantizes x into coarse logarithmic buckets (quarter-decades),
// so that slices of the same phase map to the same key despite noise.
func logBucket(x float64) int8 {
	if x <= 0.01 {
		return -8
	}
	return int8(math.Round(4 * math.Log10(x)))
}

// signature derives the allocation-invariant phase key from interval
// statistics.
func (t *FeedbackTable) signature(st *IntervalStats) fbKey {
	const kilo = 1000.0
	loRef, hiRef := 2, t.assoc/2
	apki := st.LLCAccesses / st.Instr * kilo
	mpkiLo := clampIndexed(st.ATDMisses, loRef) / st.Instr * kilo
	mpkiHi := clampIndexed(st.ATDMisses, hiRef) / st.Instr * kilo
	branch := st.BranchMisses / st.Instr * kilo
	return fbKey{
		apkiB:   logBucket(apki),
		mpkiLoB: logBucket(mpkiLo),
		mpkiHiB: logBucket(mpkiHi),
		branchB: logBucket(branch),
	}
}

// Observe records the MLP measured during the completed interval at the
// allocation it ran under.
func (t *FeedbackTable) Observe(st *IntervalStats) {
	if st.Instr <= 0 || st.TotalMisses <= 0 {
		return
	}
	key := t.signature(st)
	cells := t.mlp[key]
	if cells == nil {
		cells = make([]fbCell, t.assoc+1)
		t.mlp[key] = cells
	}
	w := st.Setting.Ways
	if w < 0 || w > t.assoc {
		return
	}
	c := &cells[w]
	obs := st.MLP()
	if c.n == 0 {
		c.val = obs
	} else {
		c.val = (1-fbAlpha)*c.val + fbAlpha*obs
	}
	c.n++
}

// MLPFor returns the learned MLP for the statistics' phase at the given way
// count and whether a learned value exists.
func (t *FeedbackTable) MLPFor(st *IntervalStats, ways int) (float64, bool) {
	cells, ok := t.mlp[t.signature(st)]
	if !ok || ways < 0 || ways > t.assoc {
		return 0, false
	}
	if c := cells[ways]; c.n > 0 {
		return c.val, true
	}
	return 0, false
}

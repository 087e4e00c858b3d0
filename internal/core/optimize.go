package core

import (
	"math"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// Option is the best (size, frequency) found for one way allocation during
// local optimization, with its predicted energy per instruction.
type Option struct {
	Size     arch.CoreSize
	FreqIdx  int
	EPI      float64 // +Inf when no setting meets the QoS target
	Feasible bool
}

// Curve is one core's pruned energy curve: for every possible way count,
// the cheapest setting that meets the core's QoS target (Figure 3 of
// Paper I / Figure 3 of Paper II).
type Curve struct {
	Options []Option // indexed by ways, 0..assoc
}

// EPI returns the curve value at w (+Inf outside the feasible range).
func (c *Curve) EPI(w int) float64 {
	if w < 0 || w >= len(c.Options) {
		return math.Inf(1)
	}
	return c.Options[w].EPI
}

// LocalOptions configures the per-core configuration-space pruning.
type LocalOptions struct {
	// Sizes is the candidate core sizes (just the baseline size for the
	// Paper I scheme, all sizes for Paper II).
	Sizes []arch.CoreSize
	// Freqs is the candidate frequency indices (all by default; pinned to
	// the baseline frequency for the partitioning-only scheme).
	Freqs []int
	// MinEnergyFreq: when false, each way count uses the *minimum* feasible
	// frequency (Paper I's fmin(w) rule); when true, all feasible
	// frequencies are evaluated and the cheapest is kept (Paper II's
	// "minimum energy meeting QoS" rule).
	MinEnergyFreq bool
	// Slack is the QoS relaxation for this core (0 = baseline performance).
	Slack float64
	// MaxWays bounds the per-core allocation (assoc - (numCores-1), since
	// every other core needs at least one way).
	MaxWays int
}

// BuildCurve performs the local optimization: for every way count w it
// searches the (size, frequency) plane for the cheapest setting whose
// predicted IPS meets the QoS target, producing the core's energy curve.
func (p *Predictor) BuildCurve(st *IntervalStats, opt LocalOptions) *Curve {
	return p.BuildCurveInto(st, opt, nil)
}

// BuildCurveInto is BuildCurve writing into a reusable curve buffer (nil
// allocates a fresh one); the resource manager reuses per-core buffers
// across intervals, keeping the invocation path allocation-free.
//
// The candidate loop is restructured so that everything invariant in the
// triple (size × ways × frequency) search — the QoS target, the per-size
// dispatch and branch cycle components, the per-(size, ways) leading-miss
// and miss predictions — is hoisted and computed exactly once, with the
// arithmetic kept term-for-term identical to Predictor.IPS/EPI so the curve
// is bit-equal to the naive search.
//
//qosrma:noalloc
func (p *Predictor) BuildCurveInto(st *IntervalStats, opt LocalOptions, buf *Curve) *Curve {
	assoc := p.Sys.LLC.Assoc
	if opt.MaxWays <= 0 || opt.MaxWays > assoc {
		opt.MaxWays = assoc
	}
	freqs := opt.Freqs
	if freqs == nil {
		// Cold-path default (sched, tests): the manager precomputes Freqs
		// in its per-core LocalOptions, so Decide never allocates here.
		//qosrma:allow(noalloc) one-time default for callers without precomputed Freqs
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

	curve := buf
	if curve == nil {
		curve = &Curve{}
	}
	if cap(curve.Options) >= assoc+1 {
		curve.Options = curve.Options[:assoc+1]
	} else {
		curve.Options = make([]Option, assoc+1)
	}

	// Per-size invariants of the cycle model (Predictor.Cycles): the
	// dispatch-bound base component and the branch penalty.
	var baseCyc, branchCyc [arch.NumCoreSizes]float64
	for _, size := range sizes {
		cp := p.Sys.Cores[size]
		baseCyc[size] = st.Instr / p.effIPC(st, cp)
		branchCyc[size] = st.BranchMisses * float64(cp.BranchPenal)
	}

	latNs := p.Sys.Mem.LatencyNs
	for w := 0; w <= assoc; w++ {
		curve.Options[w] = Option{EPI: math.Inf(1)}
		if w < 1 || w > opt.MaxWays {
			continue // every core needs at least one way
		}
		best := &curve.Options[w]
		misses := p.predictedMisses(st, w)
		for _, size := range sizes {
			leadLat := p.predictedLeading(st, size, w) * latNs
			cp := p.Sys.Cores[size]
			for _, fi := range freqs {
				op := p.Sys.DVFS[fi]
				f := op.FreqGHz
				cycles := baseCyc[size] + branchCyc[size] + leadLat*f
				if cycles <= 0 || st.Instr/(cycles/(f*1e9)) < target {
					continue
				}
				epi := power.EPI(p.Power, power.Activity{
					Instr:       st.Instr,
					Seconds:     cycles / (f * 1e9),
					LLCAccesses: st.LLCAccesses,
					DRAMAcc:     misses,
					Core:        cp,
					Op:          op,
				})
				if epi < best.EPI {
					*best = Option{Size: size, FreqIdx: fi, EPI: epi, Feasible: true}
				}
				if !opt.MinEnergyFreq {
					// fmin(w) rule: stop at the first (lowest) feasible
					// frequency for this size.
					break
				}
			}
		}
	}
	return curve
}

// WaysScratch holds AllocateWaysInto's reusable reduction state: the two
// DP rows, the current curve's EPI row, the flattened per-core choice
// matrix, and the unwound allocation. One instance per Manager keeps the
// global reduction allocation-free after the first decision (the decision
// service pushes millions of DecideAll calls through this path).
type WaysScratch struct {
	combined []float64
	next     []float64
	row      []float64 // curve i's EPIs over their non-+Inf range
	choices  []int     // n rows of totalWays+1 entries, flattened
	alloc    []int
}

// AllocateWaysInto reduces the per-core energy curves to the optimum
// partition of totalWays across cores: it minimizes the sum of curve values
// subject to sum(w_j) == totalWays. The paper's global optimization
// (Figure 3) reduces the curves pairwise, E12(w1+w2) = min over splits of
// E1(w1)+E2(w2); the fold evaluates that reduction left to right, recording
// the split choice at every stage so the final allocation can be unwound.
// Returns nil and false when no feasible allocation exists. It computes in
// ws's reusable buffers: the returned allocation aliases ws and is valid
// until the next call with the same scratch.
//
// Each stage copies curve i's EPIs into one row and pairs only the row's
// non-+Inf range with the running row's: a total with a +Inf term never
// wins (a stage's best starts at +Inf and only a strictly smaller total
// replaces it, and +Inf plus anything is +Inf or NaN), so skipping those
// pairs is bit-identical to the plain loop over every way count for every
// float input, ties included (the lowest way count still wins). Only the
// ranges are ever read, and the last stage computes only the full total,
// the one entry the unwind reads.
//
//qosrma:noalloc
func AllocateWaysInto(curves []*Curve, totalWays int, ws *WaysScratch) ([]int, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	rowLen := totalWays + 1
	if cap(ws.combined) < rowLen {
		ws.combined = make([]float64, rowLen)
		ws.next = make([]float64, rowLen)
		ws.row = make([]float64, rowLen)
	}
	if cap(ws.choices) < n*rowLen {
		ws.choices = make([]int, n*rowLen)
	}
	if cap(ws.alloc) < n {
		ws.alloc = make([]int, n)
	}
	// combined[W]: minimum total EPI of cores 0..i using exactly W ways;
	// it is +Inf outside [clo, chi], and only that range is stored.
	// choice[W]: ways given to core i in that optimum.
	combined := ws.combined[:rowLen]
	next := ws.next[:rowLen]
	row := ws.row[:rowLen]
	choices := ws.choices[:n*rowLen]
	alloc := ws.alloc[:n]
	inf := math.Inf(1)
	clo, chi := finiteRange(combined, curves[0].Options)
	for i := 1; i < n; i++ {
		choice := choices[i*rowLen : (i+1)*rowLen]
		lo, hi := finiteRange(row, curves[i].Options)
		first := 0
		if i == n-1 {
			first = totalWays
		}
		nlo, nhi := rowLen, -1
		for W := first; W <= totalWays; W++ {
			best, arg := inf, -1
			for wi, top := max(lo, W-chi), min(hi, W-clo); wi <= top; wi++ {
				if total := combined[W-wi] + row[wi]; total < best {
					best, arg = total, wi
				}
			}
			next[W], choice[W] = best, arg
			if best != inf {
				nlo, nhi = min(nlo, W), W
			}
		}
		combined, next = next, combined
		clo, chi = nlo, nhi
	}
	if chi != totalWays {
		return nil, false // combined[totalWays] is +Inf
	}
	// Unwind.
	W := totalWays
	for i := n - 1; i >= 1; i-- {
		wi := choices[i*rowLen+W]
		alloc[i] = wi
		W -= wi
	}
	alloc[0] = W
	return alloc, true
}

// finiteRange copies a curve's EPIs into row over their non-+Inf range
// and returns that range [lo, hi]: the first and last way count below
// len(row) whose EPI is not +Inf, with way counts past the curve's Options
// counting as +Inf. Entries of row outside the range are left as they
// were; lo > hi when every EPI is +Inf.
//
//qosrma:noalloc
func finiteRange(row []float64, opts []Option) (lo, hi int) {
	inf := math.Inf(1)
	hi = min(len(row), len(opts)) - 1
	for hi >= 0 && opts[hi].EPI == inf {
		hi--
	}
	for lo <= hi && opts[lo].EPI == inf {
		lo++
	}
	for w := lo; w <= hi; w++ {
		row[w] = opts[w].EPI
	}
	return lo, hi
}

// IdleCurve returns a zero-cost energy curve standing in for an unoccupied
// core: every way count, including zero, is feasible at zero energy, so the
// global reduction hands idle cores exactly the surplus ways the occupied
// cores do not want. Size and frequency of every option are the parking
// setting's (nothing executes there, they are cosmetic).
func IdleCurve(assoc int, parked arch.Setting) *Curve {
	c := &Curve{Options: make([]Option, assoc+1)}
	for w := range c.Options {
		c.Options[w] = Option{Size: parked.Size, FreqIdx: parked.FreqIdx, Feasible: true}
	}
	return c
}

// SettingsFromCurvesInto converts a way allocation back into complete
// per-core settings using each curve's per-way optimum, writing into dst's
// backing array when it is large enough (the Manager reuses its settings
// slice across decisions).
//
//qosrma:noalloc
func SettingsFromCurvesInto(dst []arch.Setting, curves []*Curve, alloc []int) []arch.Setting {
	if cap(dst) < len(curves) {
		dst = make([]arch.Setting, len(curves))
	}
	dst = dst[:len(curves)]
	for i, c := range curves {
		o := c.Options[alloc[i]]
		dst[i] = arch.Setting{Size: o.Size, FreqIdx: o.FreqIdx, Ways: alloc[i]}
	}
	return dst
}

// TotalEPI evaluates an allocation against the curves.
func TotalEPI(curves []*Curve, alloc []int) float64 {
	var sum float64
	for i, c := range curves {
		sum += c.EPI(alloc[i])
	}
	return sum
}

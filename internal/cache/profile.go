package cache

import "qosrma/internal/trace"

// CoreMLPParams are the parameters of one core configuration that the
// leading-miss (MLP) analysis depends on: the reorder-buffer window that
// bounds run-ahead and the MSHR count that bounds outstanding misses.
type CoreMLPParams struct {
	ROB   int
	MSHRs int
}

// StreamProfile is the complete build-side analysis of one phase's sample
// window: the exact per-access stack distances, the exact and sampled-set
// miss histograms, and the leading-miss surface for every (core
// configuration, way allocation) pair. It carries everything the detailed
// simulator (internal/simdb) needs to assemble a phase record, and it is
// produced by ProfileStream in a single epoch-structured traversal of the
// stream instead of one AnalyzeMLP pass per (core, ways) point.
//
// All counts are integers, so derived float profiles are bit-identical to
// the naive multi-pass computation (pinned by the property tests).
type StreamProfile struct {
	Assoc    int
	SampleIn int
	Cores    []CoreMLPParams

	// Dists[i] is the LRU stack distance of measured access i, exactly as
	// returned by Distances.
	Dists []int16
	// MissCount[w] is the exact miss count at an allocation of w ways, for
	// w in 0..Assoc (bit-identical to MissCount(Dists, w)).
	MissCount []int
	// SampledMissCount[w] is the miss count restricted to sampled sets (one
	// in SampleIn), unscaled. float64(SampledMissCount[w]) *
	// float64(SampleIn) reproduces a sampled ATD's Misses(w) exactly,
	// because per-set LRU stacks are independent: the sampled ATD's stack
	// for a sampled set is identical to the exact ATD's stack for that set.
	SampledMissCount []int
	// Leading[c][w] is the leading-miss count of core configuration c at an
	// allocation of w ways (bit-identical to
	// AnalyzeMLP(measured, Dists, w, Cores[c].ROB, Cores[c].MSHRs)).
	Leading [][]int
}

// mlpState is the per-(core, ways) epoch state of the fused leading-miss
// scan — the same three variables AnalyzeMLP tracks for a single (core,
// ways) point, flattened into one contiguous array so the inner update
// loop stays in cache.
type mlpState struct {
	leadingInstr uint32
	outstanding  int32 // 0 means no epoch open yet
	leading      int32
}

// ProfileStream computes the full build-side profile of one sample window
// in O(1) traversals of the stream: one exact-ATD pass for stack distances
// (warm-up included), then one fused pass that accumulates the exact and
// sampled miss histograms and advances the leading-miss epoch state of
// every (core, ways) combination at once.
//
// The fusion exploits that an access with stack distance d is a miss
// exactly for allocations w <= d (every allocation when d < 0): instead of
// re-scanning the stream per (c, w), each access updates only the states
// for which it is a miss. The per-state update is bit-identical to
// AnalyzeMLP's epoch rule, so the resulting surface equals the naive
// per-(c, w) loop exactly.
func ProfileStream(sets, assoc, sampleIn int, warmup, measured []trace.Access, cores []CoreMLPParams) *StreamProfile {
	if sets <= 0 || assoc <= 0 || sampleIn <= 0 || sets%sampleIn != 0 {
		panic("cache: invalid profile geometry")
	}
	dists := Distances(sets, assoc, warmup, measured)

	p := &StreamProfile{
		Assoc:            assoc,
		SampleIn:         sampleIn,
		Cores:            cores,
		Dists:            dists,
		MissCount:        make([]int, assoc+1),
		SampledMissCount: make([]int, assoc+1),
		Leading:          make([][]int, len(cores)),
	}

	// Histograms over stack distance; suffix sums yield the miss profiles.
	var (
		hist        = make([]int, assoc)
		sampledHist = make([]int, assoc)
		deep        int
		sampledDeep int
	)

	// Flattened epoch state: states[c*(assoc+1)+w].
	ways := assoc + 1
	states := make([]mlpState, len(cores)*ways)

	// Power-of-two geometries (the defaults) get mask arithmetic instead
	// of two divisions per access, mirroring the ATD hot path: with
	// sampleIn dividing sets and both powers of two, the sampled-set test
	// (line % sets) % sampleIn == 0 is just line & (sampleIn-1) == 0.
	sampMask := -1
	if sets&(sets-1) == 0 && sampleIn&(sampleIn-1) == 0 {
		sampMask = sampleIn - 1
	}

	for i, acc := range measured {
		d := int(dists[i])

		// Histogram accumulation (exact and sampled-set-restricted).
		var sampled bool
		if sampMask >= 0 {
			sampled = int(acc.Line)&sampMask == 0
		} else {
			sampled = (int(acc.Line)%sets)%sampleIn == 0
		}
		if d >= 0 {
			hist[d]++
			if sampled {
				sampledHist[d]++
			}
		} else {
			deep++
			if sampled {
				sampledDeep++
			}
		}

		// Leading-miss epoch update for every state this access misses in:
		// allocations 0..d (all of them when the distance exceeds assoc).
		maxW := assoc
		if d >= 0 {
			maxW = d
		}
		instr := acc.Instr
		if acc.Dep {
			// A dependent miss never overlaps: it starts a new epoch in
			// every affected state, unconditionally.
			for c := range cores {
				base := c * ways
				st := states[base : base+maxW+1]
				for w := range st {
					st[w].leading++
					st[w].leadingInstr = instr
					st[w].outstanding = 1
				}
			}
			continue
		}
		for c := range cores {
			rob := uint32(cores[c].ROB)
			mshrs := int32(cores[c].MSHRs)
			base := c * ways
			st := states[base : base+maxW+1]
			for w := range st {
				if o := st[w].outstanding; o > 0 && o < mshrs && instr-st[w].leadingInstr <= rob {
					st[w].outstanding = o + 1
				} else {
					st[w].leading++
					st[w].leadingInstr = instr
					st[w].outstanding = 1
				}
			}
		}
	}

	// Suffix-sum the histograms into miss profiles: a miss at w ways is an
	// access with distance >= w or deeper than the directory.
	exact, smp := deep, sampledDeep
	p.MissCount[assoc] = exact
	p.SampledMissCount[assoc] = smp
	for w := assoc - 1; w >= 0; w-- {
		exact += hist[w]
		smp += sampledHist[w]
		p.MissCount[w] = exact
		p.SampledMissCount[w] = smp
	}

	for c := range cores {
		lead := make([]int, ways)
		base := c * ways
		for w := 0; w < ways; w++ {
			lead[w] = int(states[base+w].leading)
		}
		p.Leading[c] = lead
	}
	return p
}

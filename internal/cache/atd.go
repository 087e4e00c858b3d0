package cache

import "qosrma/internal/trace"

// ATD is an auxiliary tag directory: a tags-only shadow of the LLC that
// records, for one core's access stream, the LRU stack-distance histogram.
// From a single pass it yields the miss count the core would suffer for
// *every* possible way allocation w in 1..assoc, which is the profile the
// paper's resource manager consumes (Figure 3 of Paper I).
//
// With SampleIn > 1 the ATD holds tags for one in SampleIn sets only (set
// sampling, as in the UCP hardware), and Misses scales counts back up; this
// is the realistic, noisy profile. SampleIn == 1 gives the exact profile.
//
// The per-set tag stacks live in one contiguous backing array (stack s
// occupies tags[s*assoc : s*assoc+lens[s]]), so the inner stack scan walks
// sequential memory instead of chasing a per-set slice header.
type ATD struct {
	sets     int
	assoc    int
	sampleIn int
	setMask  int      // sets-1 when sets is a power of two, else -1
	sampMask int      // sampleIn-1 when sampleIn is a power of two, else -1
	sampSh   uint     // log2(sampleIn) when sampMask >= 0
	tags     []uint32 // flattened stacks: most recent first within each set
	lens     []int32  // current depth of each sampled set's stack

	hits []uint64 // hits[d]: accesses with stack distance d
	deep uint64   // accesses with distance >= assoc (miss at any allocation)
	n    uint64   // sampled accesses
}

// NewATD builds an ATD for the given LLC geometry. sampleIn must divide sets.
func NewATD(sets, assoc, sampleIn int) *ATD {
	if sets <= 0 || assoc <= 0 || sampleIn <= 0 || sets%sampleIn != 0 {
		panic("cache: invalid ATD geometry")
	}
	stacks := sets / sampleIn
	a := &ATD{
		sets:     sets,
		assoc:    assoc,
		sampleIn: sampleIn,
		setMask:  -1,
		sampMask: -1,
		tags:     make([]uint32, stacks*assoc),
		lens:     make([]int32, stacks),
		hits:     make([]uint64, assoc),
	}
	// The default geometries are powers of two; the set-index and sampling
	// checks then reduce to mask-and-shift instead of two integer
	// divisions on the per-access hot path.
	if sets&(sets-1) == 0 {
		a.setMask = sets - 1
	}
	if sampleIn&(sampleIn-1) == 0 {
		a.sampMask = sampleIn - 1
		a.sampSh = uint(log2(sampleIn))
	}
	return a
}

// log2 returns floor(log2(x)) for x >= 1.
func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Access records one access. It returns the LRU stack distance of the line
// within its set (-1 if the line was not resident in the tag stack, i.e. a
// miss for every allocation), or -2 if the set is not sampled.
//
//qosrma:allow(testonly) per-access reference for Distances; rmasim's and simdb's tests and BenchmarkATDAccess drive it
func (a *ATD) Access(lineAddr uint32) int {
	var setIdx int
	if a.setMask >= 0 {
		setIdx = int(lineAddr) & a.setMask
	} else {
		setIdx = int(lineAddr) % a.sets
	}
	var sIdx int
	if a.sampMask >= 0 {
		if setIdx&a.sampMask != 0 {
			return -2
		}
		sIdx = setIdx >> a.sampSh
	} else {
		if setIdx%a.sampleIn != 0 {
			return -2
		}
		sIdx = setIdx / a.sampleIn
	}
	base := sIdx * a.assoc
	n := int(a.lens[sIdx])
	stack := a.tags[base : base+n]
	a.n++

	// Fast path: re-reference of the set's MRU line (no reordering needed).
	if n > 0 && stack[0] == lineAddr {
		a.hits[0]++
		return 0
	}

	// Single search-and-shift pass: displace entries one slot toward the
	// LRU end while scanning, so a hit at depth d (or a full-stack miss)
	// touches each entry exactly once instead of scan-then-memmove.
	cur := lineAddr
	for i := 0; i < n; i++ {
		t := stack[i]
		stack[i] = cur
		if t == lineAddr {
			a.hits[i]++
			return i
		}
		cur = t
	}
	a.deep++
	if n < a.assoc {
		a.tags[base+n] = cur
		a.lens[sIdx] = int32(n + 1)
	}
	return -1
}

// Misses returns the estimated total miss count for an allocation of w ways,
// scaled up by the sampling factor. Under LRU inclusion this is exact when
// SampleIn == 1.
//
//qosrma:allow(testonly) rmasim's and simdb's tests read the sampled estimate
func (a *ATD) Misses(w int) float64 {
	if w < 0 {
		w = 0
	}
	if w > a.assoc {
		w = a.assoc
	}
	m := a.deep
	for d := w; d < a.assoc; d++ {
		m += a.hits[d]
	}
	return float64(m) * float64(a.sampleIn)
}

// ResetCounters clears the hit/miss counters while keeping the tag stacks
// warm, so that a warm-up stream can precede the measured stream (the 100M
// warm-up slice of the thesis methodology).
//
//qosrma:allow(testonly) rmasim's and simdb's tests warm the directory before measuring
func (a *ATD) ResetCounters() {
	for i := range a.hits {
		a.hits[i] = 0
	}
	a.deep = 0
	a.n = 0
}

// Distances is the one exact-pass implementation shared by the detailed
// simulator (internal/simdb), the reference core simulator's tests and the
// cache tests: it computes, with a full (unsampled) tag directory, the
// stack distance of every measured access. The warmup prefix drives the tag
// stacks without being measured (the 100M-instruction warm-up slice of the
// thesis methodology); pass nil when no warm-up is wanted. distances[i] is
// the LRU depth of measured access i within its set, or -1 if deeper than
// assoc (a miss for every allocation). An access misses under an allocation
// of w ways exactly when its distance is -1 or >= w.
func Distances(sets, assoc int, warmup, measured []trace.Access) []int16 {
	atd := NewATD(sets, assoc, 1)
	out := make([]int16, len(warmup)+len(measured))
	atd.distances(out[:len(warmup)], warmup)
	atd.distances(out[len(warmup):], measured)
	return out[len(warmup):]
}

// distances drives the full (sampleIn == 1) directory over accs, writing
// each access's stack distance to out. It is Access specialized for the
// exact pass: no sampling test, no histogram bookkeeping — the tag-stack
// discipline (MRU fast path, single search-and-shift) is identical, and a
// test pins it element-for-element equal to per-access Access calls.
func (a *ATD) distances(out []int16, accs []trace.Access) {
	tags, lens, assoc := a.tags, a.lens, a.assoc
	setMask, sets := a.setMask, a.sets
	for i, acc := range accs {
		line := acc.Line
		var setIdx int
		if setMask >= 0 {
			setIdx = int(line) & setMask
		} else {
			setIdx = int(line) % sets
		}
		base := setIdx * assoc
		n := int(lens[setIdx])
		stack := tags[base : base+n]
		if n > 0 && stack[0] == line {
			out[i] = 0
			continue
		}
		d := int16(-1)
		cur := line
		for j := 0; j < n; j++ {
			t := stack[j]
			stack[j] = cur
			if t == line {
				d = int16(j)
				break
			}
			cur = t
		}
		if d < 0 && n < assoc {
			tags[base+n] = cur
			lens[setIdx] = int32(n + 1)
		}
		out[i] = d
	}
}

// MissCount returns the number of misses in the stream for an allocation of
// w ways given precomputed distances.
//
//qosrma:allow(testonly) refsim's and simdb's tests count misses from distances
func MissCount(dists []int16, w int) int {
	n := 0
	for _, d := range dists {
		if d < 0 || int(d) >= w {
			n++
		}
	}
	return n
}

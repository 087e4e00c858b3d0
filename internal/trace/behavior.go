// Package trace implements the synthetic benchmark substrate that replaces
// the SPEC CPU2006 whole-program Pinballs used by the paper.
//
// Each benchmark is a deterministic generative model: a sequence of
// 100M-instruction slices, where every slice is drawn from one of a small
// set of phase behaviours. A behaviour specifies the statistical properties
// that the paper's resource-management algorithms actually observe through
// hardware counters and the auxiliary tag directory:
//
//   - LLC access intensity (accesses per kilo-instruction),
//   - locality structure (hot/warm working sets + streaming fraction),
//     which determines the cache-miss-versus-ways curve,
//   - miss burstiness and inter-miss dependences, which determine the
//     memory-level parallelism achievable for each core size,
//   - dependency-limited ILP and branch behaviour, which determine the
//     compute component of CPI for each core size.
//
// The generator produces a representative memory-access sample stream and a
// basic-block-vector-like signature per slice, feeding the detailed
// simulator (internal/simdb) and the SimPoint analysis (internal/simpoint)
// respectively, mirroring the methodology of the thesis (Chapter 2).
package trace

import "qosrma/internal/stats"

// SliceInstructions is the fixed slice ("interval") length used throughout
// the paper: resource-management decisions happen at this granularity.
const SliceInstructions = 100_000_000

// Behavior is one program phase's generative specification.
//
// Behavior must stay a comparable value type (scalar fields only): the
// detailed simulator's process-wide phase-profile cache (internal/simdb)
// keys on the jittered spec by value, which is what makes "same behaviour
// ⇒ same profile" sharing across databases sound. The compile-time guard
// below enforces this.
type Behavior struct {
	// Name identifies the behaviour within its benchmark (for debugging).
	Name string

	// IlpIPC is the dependency-limited instructions-per-cycle the phase can
	// sustain given unlimited issue width; the effective width is
	// min(IlpIPC, core width).
	IlpIPC float64

	// BranchMPKI is branch mispredictions per kilo-instruction.
	BranchMPKI float64

	// APKI is LLC accesses (i.e. L2 misses) per kilo-instruction.
	APKI float64

	// HotLines and WarmLines are the sizes, in cache lines, of the two
	// re-referenced working sets. PHot and PWarm are the probabilities that
	// an access falls in each; the remainder streams through new lines.
	HotLines, WarmLines int
	PHot, PWarm         float64

	// PBurst is the probability that an access opens a burst; BurstLen is
	// the mean number of accesses per burst; BurstGap is the mean
	// instruction gap between accesses inside a burst. Bursty, independent
	// accesses are what larger ROB/MSHR configurations convert into MLP.
	PBurst   float64
	BurstLen float64
	BurstGap float64

	// PDep is the probability that an access depends on the previous
	// in-flight access (pointer chasing); dependent misses cannot overlap.
	PDep float64
}

// Compile-time guards: Behavior and SampleParams are used as (parts of)
// cache-map keys; adding a slice/map/function field would silently turn
// every lookup into a runtime panic.
var (
	_ = map[Behavior]struct{}{}
	_ = map[SampleParams]struct{}{}
)

// Access is one sampled LLC access.
type Access struct {
	Line  uint32 // cache-line id within the application's address space
	Instr uint32 // instruction index within the sample window
	Dep   bool   // true if this access depends on the previous access
}

// streamWrap bounds the streaming region so address space stays finite
// (2^22 lines = 256 MiB of streamed data before wrap).
const streamWrap = 1 << 22

// SampleParams controls the size of the representative sample stream.
type SampleParams struct {
	// Accesses is the number of measured accesses to generate.
	Accesses int
	// WarmupAccesses precede the measured stream (cache warm-up), mirroring
	// the 100M-instruction warm-up slices of the thesis methodology.
	WarmupAccesses int
}

// DefaultSampleParams returns the sample sizes used to build the
// simulation-results database.
func DefaultSampleParams() SampleParams {
	return SampleParams{Accesses: 48_000, WarmupAccesses: 16_000}
}

// Stream is a generated sample access stream plus the implied instruction
// window it covers.
type Stream struct {
	Warmup      []Access // warm-up prefix (not measured)
	Measured    []Access
	WindowInstr float64 // instructions spanned by the measured stream
}

// ScaleToSlice returns the factor that scales counts measured on the sample
// window up to one full 100M-instruction slice.
//
//qosrma:allow(testonly) simdb's naive-pipeline reference scales its counts by it
func (s *Stream) ScaleToSlice() float64 {
	if s.WindowInstr <= 0 {
		return 0
	}
	return SliceInstructions / s.WindowInstr
}

// Generate produces the deterministic sample stream for the behaviour using
// the supplied seed. Identical (behaviour, seed, params) always produce an
// identical stream.
func (b *Behavior) Generate(seed uint64, p SampleParams) *Stream {
	rng := stats.NewRNG(seed)
	total := p.WarmupAccesses + p.Accesses
	accs := make([]Access, total)

	// Solve the out-of-burst gap so the overall access rate matches APKI.
	// Mean gap over all accesses must be 1000/APKI instructions. A fraction
	// fb of accesses are inside bursts with mean gap BurstGap.
	meanGap := 1000.0 / b.APKI
	fb := b.burstFraction()
	gapNormal := (meanGap - fb*b.BurstGap) / (1 - fb)
	if gapNormal < 1 {
		gapNormal = 1
	}

	var (
		instr      float64
		burstLeft  int
		streamNext = uint32(b.HotLines + b.WarmLines)
	)
	for i := 0; i < total; i++ {
		// Advance the instruction clock.
		if burstLeft > 0 {
			instr += 1 + rng.Exp(b.BurstGap)
			burstLeft--
		} else {
			instr += 1 + rng.Exp(gapNormal)
			if rng.Float64() < b.PBurst {
				burstLeft = 1 + rng.Geometric(1/maxf(b.BurstLen, 1))
			}
		}

		// Pick the address region.
		var line uint32
		r := rng.Float64()
		switch {
		case r < b.PHot && b.HotLines > 0:
			line = uint32(rng.Intn(b.HotLines))
		case r < b.PHot+b.PWarm && b.WarmLines > 0:
			line = uint32(b.HotLines + rng.Intn(b.WarmLines))
		default:
			line = streamNext
			streamNext++
			if streamNext >= streamWrap {
				streamNext = uint32(b.HotLines + b.WarmLines)
			}
		}

		accs[i] = Access{
			Line:  line,
			Instr: uint32(instr),
			Dep:   rng.Float64() < b.PDep,
		}
	}

	// The measured window length in instructions is the span of the
	// measured suffix.
	warm := accs[:p.WarmupAccesses]
	meas := accs[p.WarmupAccesses:]
	var window float64
	if len(meas) > 0 {
		start := float64(meas[0].Instr)
		end := float64(meas[len(meas)-1].Instr)
		window = end - start
		if window < 1 {
			window = 1
		}
	}
	return &Stream{Warmup: warm, Measured: meas, WindowInstr: window}
}

// burstFraction estimates the fraction of accesses that are inside bursts.
func (b *Behavior) burstFraction() float64 {
	if b.PBurst <= 0 || b.BurstLen <= 0 {
		return 0
	}
	// Each non-burst access opens a burst with probability PBurst; a burst
	// contributes BurstLen accesses per opener on average.
	f := b.PBurst * b.BurstLen / (1 + b.PBurst*b.BurstLen)
	if !(f < 0.95) { // also catches NaN from overflowing products
		f = 0.95
	}
	if f < 0 {
		f = 0
	}
	return f
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// NumSignatureBlocks is the dimensionality of the synthetic basic-block
// vector used as the SimPoint clustering feature.
const NumSignatureBlocks = 32

// Signature returns the behaviour's characteristic basic-block-vector-like
// signature: a sparse distribution over synthetic basic blocks derived
// deterministically from the behaviour name. Slices of the same behaviour
// produce nearby signatures (after per-slice jitter), so k-means clustering
// recovers the phase structure the way SimPoint does.
func (b *Behavior) Signature() [NumSignatureBlocks]float64 {
	rng := stats.NewRNG(stats.SeedFrom(0x5157_0001, b.Name))
	var sig [NumSignatureBlocks]float64
	// Concentrate mass on a handful of blocks, like real BBVs.
	var sum float64
	for i := 0; i < 6; i++ {
		blk := rng.Intn(NumSignatureBlocks)
		w := rng.Exp(1) + 0.2
		sig[blk] += w
		sum += w
	}
	for i := range sig {
		sig[i] /= sum
	}
	return sig
}

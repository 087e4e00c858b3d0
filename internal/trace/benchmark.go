package trace

import (
	"fmt"

	"qosrma/internal/stats"
)

// Benchmark is a full synthetic application: a named sequence of slices,
// each drawn from one of the benchmark's behaviours, plus a seed that makes
// every derived stream deterministic.
type Benchmark struct {
	Name      string
	Seed      uint64
	Behaviors []Behavior
	// SliceBehavior[i] is the behaviour index generating slice i. This is
	// the generative ground truth; the SimPoint analysis reconstructs an
	// approximation of it from slice signatures.
	SliceBehavior []int
}

// NumSlices returns the total number of 100M-instruction slices.
func (b *Benchmark) NumSlices() int { return len(b.SliceBehavior) }

// SliceJitter captures the small per-slice deviation from the phase's
// representative behaviour. The thesis notes that its framework cannot
// capture intra-phase variation; we generate it anyway so that the
// clustering step has realistic input, and so that "perfect" models remain
// slightly imperfect at slice granularity.
type SliceJitter struct {
	APKIScale float64
	HotScale  float64
	IPCScale  float64
}

// Jitter returns the deterministic jitter for slice i.
func (b *Benchmark) Jitter(i int) SliceJitter {
	rng := stats.NewRNG(stats.SeedFrom(b.Seed, fmt.Sprintf("jitter/%d", i)))
	return SliceJitter{
		APKIScale: clamp(rng.Norm(1, 0.03), 0.9, 1.1),
		HotScale:  clamp(rng.Norm(1, 0.04), 0.85, 1.15),
		IPCScale:  clamp(rng.Norm(1, 0.02), 0.93, 1.07),
	}
}

// SliceBehaviorSpec returns the effective behaviour for slice i: the phase
// behaviour with the slice's jitter applied.
func (b *Benchmark) SliceBehaviorSpec(i int) Behavior {
	spec := b.Behaviors[b.SliceBehavior[i]]
	j := b.Jitter(i)
	spec.APKI *= j.APKIScale
	spec.HotLines = int(float64(spec.HotLines) * j.HotScale)
	if spec.HotLines < 1 {
		spec.HotLines = 1
	}
	spec.IlpIPC *= j.IPCScale
	return spec
}

// SliceSignature returns the BBV-like feature vector for slice i: the
// behaviour signature perturbed by deterministic noise.
func (b *Benchmark) SliceSignature(i int) [NumSignatureBlocks]float64 {
	sig := b.Behaviors[b.SliceBehavior[i]].Signature()
	rng := stats.NewRNG(stats.SeedFrom(b.Seed, fmt.Sprintf("sig/%d", i)))
	var sum float64
	for k := range sig {
		sig[k] = maxf(0, sig[k]+rng.Norm(0, 0.004))
		sum += sig[k]
	}
	if sum > 0 {
		for k := range sig {
			sig[k] /= sum
		}
	}
	return sig
}

// StreamSeed returns the deterministic seed for a behaviour's sample stream.
func (b *Benchmark) StreamSeed(behaviorIdx int) uint64 {
	return stats.SeedFrom(b.Seed, "stream/"+b.Behaviors[behaviorIdx].Name)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// segments builds a slice-behaviour sequence from (behaviour index, count)
// pairs, mimicking the phase structure of long-running applications.
func segments(pairs ...[2]int) []int {
	var out []int
	for _, p := range pairs {
		for i := 0; i < p[1]; i++ {
			out = append(out, p[0])
		}
	}
	return out
}

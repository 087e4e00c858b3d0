// Package refsim is a cycle-approximate reference core simulator used to
// validate the interval-analysis timing model (internal/timing) and the
// leading-loads MLP analysis (internal/cache) against a mechanistic
// execution of the sampled access stream.
//
// Where the interval model *counts* leading misses and charges each the
// full memory latency, this simulator actually executes the window as a
// discrete-event process: instructions dispatch at the dependency- and
// width-limited rate, branch mispredictions flush, and LLC misses occupy
// MSHR entries for the full latency while the reorder buffer lets
// execution run ahead a bounded number of instructions. The two must agree
// on total cycles within a modest tolerance — that agreement is what
// justifies building the simulation-results database from the closed-form
// model (tested in refsim_test.go).
package refsim

import (
	"qosrma/internal/arch"
	"qosrma/internal/trace"
)

// Config describes one execution of a sample window.
type Config struct {
	Core     arch.CoreParams
	FreqGHz  float64
	MemLatNs float64
	// Ways is the LLC allocation; an access misses when its stack distance
	// is negative or >= Ways.
	Ways int
	// IlpIPC and BranchMPKI describe the phase (as in timing.Inputs).
	IlpIPC     float64
	BranchMPKI float64
	// WindowInstr is the total instruction count of the window.
	WindowInstr float64
}

// Result is the simulated outcome.
type Result struct {
	Cycles        float64
	TotalMisses   int
	StalledMisses int // misses that stalled retirement (≈ leading misses)
}

// miss tracks one outstanding LLC miss.
type miss struct {
	instr uint32  // instruction index that issued it
	ready float64 // cycle at which data returns
}

// Run executes the window. accs is the measured sample access stream and
// dists its per-access LRU stack distances, as computed by
// cache.Distances(sets, assoc, warmup, accs) — the shared exact-ATD pass,
// which warms the tag stacks with the warm-up prefix before measuring.
//
//qosrma:allow(testonly) the package is a validation oracle its tests run against the timing model
func Run(cfg Config, accs []trace.Access, dists []int16) Result {
	effIPC := cfg.IlpIPC
	if w := float64(cfg.Core.Width); effIPC > w {
		effIPC = w
	}
	if effIPC <= 0 {
		effIPC = 0.1
	}
	latCycles := cfg.MemLatNs * cfg.FreqGHz
	// Branch mispredictions are spread uniformly: one flush every
	// 1000/BranchMPKI instructions costs BranchPenal cycles. Amortize as a
	// per-instruction dispatch surcharge, as hardware averages do.
	branchPerInstr := cfg.BranchMPKI / 1000 * float64(cfg.Core.BranchPenal)
	dispatch := 1/effIPC + branchPerInstr // cycles per instruction, no memory

	var (
		clock       float64
		lastInstr   uint32 // last dispatched instruction index
		firstInstr  uint32 // window origin (stream indices continue past warm-up)
		outstanding []miss
		res         Result
	)
	if len(accs) > 0 {
		firstInstr = accs[0].Instr
		lastInstr = firstInstr
	}

	// retire removes completed misses given the current clock.
	retire := func(now float64) {
		kept := outstanding[:0]
		for _, m := range outstanding {
			if m.ready > now {
				kept = append(kept, m)
			}
		}
		outstanding = kept
	}

	for i, acc := range accs {
		d := dists[i]
		if d >= 0 && int(d) < cfg.Ways {
			continue // hit: costs nothing beyond dispatch
		}
		res.TotalMisses++

		// Advance the clock to this access's dispatch point.
		clock += float64(acc.Instr-lastInstr) * dispatch
		lastInstr = acc.Instr
		retire(clock)

		// The ROB bounds run-ahead: if the oldest outstanding miss is more
		// than ROB instructions behind, dispatch stalls until it completes.
		// A dependent access must wait for the previous miss regardless.
		stalled := false
		for len(outstanding) > 0 {
			oldest := outstanding[0]
			blockedByROB := acc.Instr-oldest.instr >= uint32(cfg.Core.ROB)
			blockedByMSHR := len(outstanding) >= cfg.Core.MSHRs
			blockedByDep := acc.Dep
			if !blockedByROB && !blockedByMSHR && !blockedByDep {
				break
			}
			// Wait for the relevant miss to return.
			wait := outstanding[0].ready
			if blockedByDep || blockedByMSHR {
				wait = outstanding[len(outstanding)-1].ready
				if blockedByMSHR && !blockedByDep {
					wait = outstanding[0].ready
				}
			}
			if wait > clock {
				clock = wait
				stalled = true
			}
			retire(clock)
			if blockedByDep {
				break // the dependence is now satisfied
			}
		}
		if stalled || len(outstanding) == 0 {
			res.StalledMisses++
		}
		outstanding = append(outstanding, miss{instr: acc.Instr, ready: clock + latCycles})
	}

	// Drain: the window ends when the last instruction dispatches and all
	// misses complete.
	if end := float64(firstInstr) + cfg.WindowInstr; end > float64(lastInstr) {
		clock += (end - float64(lastInstr)) * dispatch
	}
	for _, m := range outstanding {
		if m.ready > clock {
			clock = m.ready
		}
	}
	res.Cycles = clock
	return res
}

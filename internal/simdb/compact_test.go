package simdb_test

import (
	"math"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/timing"
	"qosrma/internal/trace"
)

// fullPoint is the fifteen-value outcome the compiled tables stored per
// lattice point before PerfPoint kept only the four values the others
// derive from.
type fullPoint struct {
	Instr       float64
	Cycles      float64
	Seconds     float64
	IPS         float64
	TPI         float64
	EPI         float64
	Energy      power.Breakdown
	Misses      float64
	Leading     float64
	LLCAccesses float64
}

// stallWatts is the stall-power rule the simulator applied to a full
// point: leakage plus uncore over the interval, zero for a zero-duration
// point.
func (p fullPoint) stallWatts() float64 {
	if p.Seconds > 0 {
		return (p.Energy.CoreStat + p.Energy.Uncore) / p.Seconds
	}
	return 0
}

// fullPerfReference is the retired full model evaluation, kept verbatim as
// the reference every derived value of the compact point must reproduce.
func fullPerfReference(sys *arch.SystemConfig, pw power.Params, rec *simdb.PhaseRecord, s arch.Setting) fullPoint {
	const instr = float64(trace.SliceInstructions)
	w := s.Ways
	if w < 0 {
		w = 0
	}
	if w >= len(rec.Misses) {
		w = len(rec.Misses) - 1
	}
	op := sys.DVFS[s.FreqIdx]
	cp := sys.Cores[s.Size]

	in := timing.Inputs{
		Instr:         instr,
		IlpIPC:        rec.IlpIPC,
		BranchMPKI:    rec.BranchMPKI,
		LeadingMisses: rec.Leading[s.Size][w],
		FreqGHz:       op.FreqGHz,
		MemLatNs:      sys.Mem.LatencyNs,
		Core:          cp,
	}
	cycles := timing.Cycles(in).Total()
	secs := timing.Seconds(cycles, op.FreqGHz)
	if cap := sys.Mem.PerCoreGBps; cap > 0 {
		demand := rec.Misses[w] * float64(sys.LLC.LineB) / secs
		in.MemLatNs = timing.BandwidthLatency(sys.Mem.LatencyNs, demand, cap*1e9)
		cycles = timing.Cycles(in).Total()
		secs = timing.Seconds(cycles, op.FreqGHz)
	}
	act := power.Activity{
		Instr:       instr,
		Seconds:     secs,
		LLCAccesses: rec.APKI * instr / 1000,
		DRAMAcc:     rec.Misses[w],
		Core:        cp,
		Op:          op,
	}
	eb := power.Energy(pw, act)
	return fullPoint{
		Instr:       instr,
		Cycles:      cycles,
		Seconds:     secs,
		IPS:         instr / secs,
		TPI:         secs / instr,
		EPI:         eb.Total() / instr,
		Energy:      eb,
		Misses:      rec.Misses[w],
		Leading:     rec.Leading[s.Size][w],
		LLCAccesses: act.LLCAccesses,
	}
}

// TestCompactPointMatchesFullEvaluation is the bit-identity wall of the
// compact lattice point: at every phase and lattice index, every value a
// reader derives from a PerfPoint and its phase record — the rates, the
// energy, the stall power and the statistics FillStats hands the resource
// manager — has the bits the full evaluation produced, with and without
// the bandwidth-partitioned memory controller.
func TestCompactPointMatchesFullEvaluation(t *testing.T) {
	db := simdb.SharedTestDB(t)
	sys := db.Sys
	sys.Mem.PerCoreGBps = 3
	for _, db := range []*simdb.DB{db, db.Recompiled(sys)} {
		var st core.IntervalStats
		for id := simdb.BenchID(0); int(id) < db.NumBenches(); id++ {
			for phase := range db.Benches[id].Phases {
				rec := db.RecordAt(id, phase)
				for i := 0; i < db.Lattice.Len(); i++ {
					s := db.Lattice.Setting(i)
					pt := db.PerfAt(id, phase, i)
					ref := fullPerfReference(&db.Sys, db.Power, rec, s)
					rmasim.FillStats(db, id, phase, i, 0, false, &st)
					for _, c := range []struct {
						name      string
						got, want float64
					}{
						{"Cycles", pt.Cycles, ref.Cycles},
						{"Seconds", pt.Seconds, ref.Seconds},
						{"TPI", pt.TPI(), ref.TPI},
						{"EPI", pt.EPI(), ref.EPI},
						{"IPS", pt.IPS(), ref.IPS},
						{"Energy.Total", pt.Energy.Total(), ref.Energy.Total()},
						{"StallWatts", pt.StallWatts(), ref.stallWatts()},
						{"FillStats.Cycles", st.Cycles, ref.Cycles},
						{"FillStats.LLCAccesses", st.LLCAccesses, ref.LLCAccesses},
						{"FillStats.TotalMisses", st.TotalMisses, ref.Misses},
						{"FillStats.LeadingMisses", st.LeadingMisses, ref.Leading},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Fatalf("%s/%d at %v (bandwidth cap %v): %s = %v, full evaluation %v",
								db.BenchName(id), phase, s, db.Sys.Mem.PerCoreGBps, c.name, c.got, c.want)
						}
					}
				}
			}
		}
	}
}

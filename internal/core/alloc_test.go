package core

import (
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// These pins back the //qosrma:noalloc annotations in this package
// (qosrmavet's static check is necessary but not sufficient — the pins
// measure the steady state the annotations promise). Decide and
// DecideAll are pinned at exactly one allocation per call: the returned
// settings slice is an intentional defensive copy because callers
// retain it; everything on the way there reuses Manager-held scratch.

func warmManager(tb testing.TB, scheme Scheme, kind ModelKind) (*Manager, arch.SystemConfig, []*IntervalStats) {
	tb.Helper()
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys:    sys,
		Power:  power.DefaultParams(sys),
		Scheme: scheme,
		Model:  kind,
	})
	st := make([]*IntervalStats, sys.NumCores)
	for i := range st {
		st[i] = statsForCore(sys, i, i%2 == 0)
	}
	if _, ok := m.DecideAll(st); !ok {
		tb.Fatal("warm-up DecideAll made no decision")
	}
	return m, sys, st
}

func TestDecideAllSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	got := testing.AllocsPerRun(100, func() {
		if _, ok := m.DecideAll(st); !ok {
			t.Fatal("DecideAll made no decision")
		}
	})
	if got != 1 {
		t.Fatalf("DecideAll allocated %.0f times per call, want exactly 1 (the returned settings copy)", got)
	}
}

func TestDecideSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	got := testing.AllocsPerRun(100, func() {
		if _, ok := m.Decide(0, st[0]); !ok {
			t.Fatal("Decide made no decision")
		}
	})
	if got != 1 {
		t.Fatalf("Decide allocated %.0f times per call, want exactly 1 (the returned settings copy)", got)
	}
}

func TestBuildCurveIntoSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordCoreDVFSCache, Model3)
	buf := m.pred.BuildCurveInto(st[0], m.localOptions(0), nil)
	got := testing.AllocsPerRun(100, func() {
		buf = m.pred.BuildCurveInto(st[0], m.localOptions(0), buf)
	})
	if got != 0 {
		t.Fatalf("BuildCurveInto allocated %.0f times per call with a reused buffer, want 0", got)
	}
}

func TestAllocateWaysIntoSteadyStateAllocs(t *testing.T) {
	m, sys, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	if _, ok := m.DecideAll(st); !ok {
		t.Fatal("DecideAll made no decision")
	}
	curves := m.decisionCurves()
	var ws WaysScratch
	if _, ok := AllocateWaysInto(curves, sys.LLC.Assoc, &ws); !ok {
		t.Fatal("warm-up AllocateWaysInto found no allocation")
	}
	got := testing.AllocsPerRun(100, func() {
		if _, ok := AllocateWaysInto(curves, sys.LLC.Assoc, &ws); !ok {
			t.Fatal("AllocateWaysInto found no allocation")
		}
		finiteRange(ws.row, curves[0].Options) // the per-stage row copy
	})
	if got != 0 {
		t.Fatalf("AllocateWaysInto allocated %.0f times per call with warm scratch, want 0", got)
	}
}

func TestSettingsFromCurvesIntoSteadyStateAllocs(t *testing.T) {
	m, sys, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	if _, ok := m.DecideAll(st); !ok {
		t.Fatal("DecideAll made no decision")
	}
	curves := m.decisionCurves()
	alloc, ok := AllocateWays(curves, sys.LLC.Assoc)
	if !ok {
		t.Fatal("AllocateWays found no allocation")
	}
	dst := SettingsFromCurvesInto(nil, curves, alloc)
	got := testing.AllocsPerRun(100, func() {
		dst = SettingsFromCurvesInto(dst, curves, alloc)
	})
	if got != 0 {
		t.Fatalf("SettingsFromCurvesInto allocated %.0f times per call with a reused slice, want 0", got)
	}
}

// keyedStats returns the warm manager's statistics with synthetic keys,
// so its decisions go through the curve table and the allocation memo.
func keyedStats(st []*IntervalStats) []*IntervalStats {
	out := make([]*IntervalStats, len(st))
	for i, s := range st {
		c := *s
		c.Key = uint64(i + 1)
		out[i] = &c
	}
	return out
}

// TestMemoHitSteadyStateAllocs pins the memoized paths (curve table hit,
// allocation memo hit in allocate, settings in apply) at the same single
// allocation as the uncached ones: the returned settings copy.
func TestMemoHitSteadyStateAllocs(t *testing.T) {
	m, _, plain := warmManager(t, SchemeCoordDVFSCache, Model2)
	st := keyedStats(plain)
	if _, ok := m.DecideAll(st); !ok {
		t.Fatal("keyed warm-up DecideAll made no decision")
	}
	if len(m.memo.allocs) != 1 {
		t.Fatalf("memo holds %d allocations after one keyed decision, want 1", len(m.memo.allocs))
	}
	for name, fn := range map[string]func(){
		"DecideAll": func() { m.DecideAll(st) },
		"Decide":    func() { m.Decide(0, st[0]) },
		"allocate":  func() { m.allocate(m.decisionCurves()) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 1 {
			t.Fatalf("%s allocated %.0f times per memo hit, want exactly 1 (the returned settings copy)", name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { m.curve(0, st[0]) }); got != 0 {
		t.Fatalf("curve allocated %.0f times per table hit, want 0", got)
	}
	alloc := []int{1, 2, 3, 4}
	if got := testing.AllocsPerRun(100, func() { m.apply(m.decisionCurves(), alloc) }); got != 1 {
		t.Fatalf("apply allocated %.0f times per call, want exactly 1 (the returned settings copy)", got)
	}
	if len(m.memo.curves) != len(st) || len(m.memo.allocs) != 1 {
		t.Fatalf("hits grew the table to %d curves and the memo to %d allocations", len(m.memo.curves), len(m.memo.allocs))
	}
}

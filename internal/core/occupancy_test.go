package core

import (
	"testing"

	"qosrma/internal/arch"
)

// TestVacantCoresDonateWays: with one core vacated, the coordinated
// manager must still reach a decision once the occupied cores have
// reported, and the occupied cores' allocation plus the idle surplus must
// cover the full associativity.
func TestVacantCoresDonateWays(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	m.Vacate(3)
	if m.occupied[3] {
		t.Fatal("core 3 still occupied after Vacate")
	}
	var got []int
	for core := 0; core < 3; core++ {
		s, ok := m.Decide(core, statsForCore(sys, core, core == 0))
		if core < 2 && ok {
			t.Fatalf("decision before all occupied cores reported (core %d)", core)
		}
		if core == 2 {
			if !ok {
				t.Fatal("no decision once every occupied core reported")
			}
			for i, set := range s {
				got = append(got, set.Ways)
				if i < 3 && set.Ways < 1 {
					t.Fatalf("occupied core %d got %d ways", i, set.Ways)
				}
			}
			if s[3] != sys.BaselineSetting() {
				t.Fatalf("vacant core not parked at baseline: %+v", s[3])
			}
			if got[0]+got[1]+got[2] > sys.LLC.Assoc {
				t.Fatalf("occupied cores over-allocated: %v", got)
			}
		}
	}
}

// TestVacateClearsHistory: a core vacated and re-occupied must behave like
// a fresh core — the manager must wait for its first statistics again
// rather than reusing the departed application's curve.
func TestVacateClearsHistory(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	for core := 0; core < 4; core++ {
		if _, ok := m.Decide(core, statsForCore(sys, core, true)); ok != (core == 3) {
			t.Fatalf("unexpected decision state at core %d", core)
		}
	}
	m.Vacate(2)
	m.Occupy(2)
	// Core 2's history is gone: a decision invoked by another core must
	// stall on the re-occupied core's missing statistics.
	if _, ok := m.Decide(0, statsForCore(sys, 0, true)); ok {
		t.Fatal("decision used the departed application's curve")
	}
	if _, ok := m.Decide(2, statsForCore(sys, 2, false)); !ok {
		t.Fatal("no decision after the new tenant reported")
	}
}

// TestRebaseline returns every core to the equal partition.
func TestRebaseline(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	for core := 0; core < 4; core++ {
		m.Decide(core, statsForCore(sys, core, core%2 == 0))
	}
	for _, s := range m.Rebaseline() {
		if s != sys.BaselineSetting() {
			t.Fatalf("rebaseline left %+v", s)
		}
	}
	for _, s := range m.Settings() {
		if s != sys.BaselineSetting() {
			t.Fatal("manager state not rebaselined")
		}
	}
}

// TestUncoordinatedWithVacancy: the UCP+DVFS strawman must not crash with
// vacant cores; vacant cores read as miss-free and keep the baseline.
func TestUncoordinatedWithVacancy(t *testing.T) {
	m, sys := managerFor(SchemeUCPDVFS, Model2)
	m.Vacate(1)
	m.Vacate(3)
	var settings = m.Settings()
	for _, core := range []int{0, 2} {
		s, ok := m.Decide(core, statsForCore(sys, core, true))
		if core == 2 {
			if !ok {
				t.Fatal("no uncoordinated decision with vacancies")
			}
			settings = s
		}
	}
	for _, i := range []int{1, 3} {
		if settings[i] != sys.BaselineSetting() {
			t.Fatalf("vacant core %d moved: %+v", i, settings[i])
		}
	}
	if settings[0].Ways < 1 || settings[2].Ways < 1 {
		t.Fatalf("occupied cores under-allocated: %+v", settings)
	}
}

// TestIdleCurve pins the idle stand-in: zero cost everywhere, including
// zero ways, so surplus absorption is always feasible.
func TestIdleCurve(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	c := IdleCurve(sys.LLC.Assoc, sys.BaselineSetting())
	for w := 0; w <= sys.LLC.Assoc; w++ {
		if c.EPI(w) != 0 || !c.Options[w].Feasible {
			t.Fatalf("idle curve not free at %d ways", w)
		}
	}
	alloc, ok := AllocateWaysInto([]*Curve{c}, sys.LLC.Assoc, new(WaysScratch))
	if !ok || alloc[0] != sys.LLC.Assoc {
		t.Fatalf("idle-only allocation = %v, %v (want the full surplus)", alloc, ok)
	}
}

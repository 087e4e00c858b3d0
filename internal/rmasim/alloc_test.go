package rmasim

import (
	"testing"

	"qosrma/internal/core"
)

// Pins backing the //qosrma:noalloc annotations on the stepper: once the
// finished-scratch and per-core statistics buffers (gatherStats) are
// warm, advancing the simulation allocates nothing under the static
// scheme. The coordinated schemes add exactly the manager's documented
// per-decision settings copy, which the core package pins separately.

func TestStepSteadyStateAllocs(t *testing.T) {
	db := testDB(t)
	mgr := newMgr(db, core.SchemeStatic, core.Model2, nil)
	sim, err := New(db, mixedWorkload, mgr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // warm the scratch buffers
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("Step allocated %.0f times per event under the static scheme, want 0 (gatherStats and the finished scratch must reuse their buffers)", got)
	}

	c := sim.cores[0]
	got = testing.AllocsPerRun(200, func() {
		c.gatherStats(db, 0, 0, false)
	})
	if got != 0 {
		t.Fatalf("gatherStats allocated %.0f times per call, want 0 (it must fill the core's reusable buffer)", got)
	}
	got = testing.AllocsPerRun(200, func() {
		FillStats(db, c.id, 0, db.BaselineIdx(), 0, true, &c.stats)
	})
	if got != 0 {
		t.Fatalf("FillStats allocated %.0f times per call, want 0", got)
	}
}

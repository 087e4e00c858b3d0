package simdb

import (
	"strings"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/stats"
)

// TestCompiledPerfMatchesReference is the golden property of the compiled
// lattice: for randomized (benchmark, phase, setting) triples, the table
// read served by Perf/PerfAt must be bit-identical to the retained
// on-the-fly reference evaluation.
func TestCompiledPerfMatchesReference(t *testing.T) {
	db := testDB(t)
	check := func(bench string, phase int, s arch.Setting) {
		t.Helper()
		got, err := db.Perf(bench, phase, s)
		if err != nil {
			t.Fatalf("Perf(%s, %d, %v): %v", bench, phase, s, err)
		}
		want, err := db.ReferencePerf(bench, phase, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s/%d at %v: compiled %+v != reference %+v", bench, phase, s, got, want)
		}
		id, ok := db.BenchIDOf(bench)
		if !ok {
			t.Fatalf("BenchIDOf(%s) failed", bench)
		}
		if fast := *db.PerfAt(id, phase, db.Lattice.Index(s)); fast != want {
			t.Fatalf("%s/%d at %v: PerfAt %+v != reference %+v", bench, phase, s, fast, want)
		}
	}

	r := stats.NewRNG(71)
	for trial := 0; trial < 2000; trial++ {
		bd := db.Benches[r.Intn(len(db.Benches))]
		phase := r.Intn(len(bd.Phases))
		s := arch.Setting{
			Size:    arch.CoreSize(r.Intn(arch.NumCoreSizes)),
			FreqIdx: r.Intn(len(db.Sys.DVFS)),
			// Include out-of-range way counts: both paths must clamp alike.
			Ways: r.Intn(db.Sys.LLC.Assoc+5) - 2,
		}
		check(bd.Name, phase, s)
	}
}

// TestCompiledPerfMatchesReferenceExhaustive sweeps every lattice point of
// one phase and compares table and reference bit-for-bit.
func TestCompiledPerfMatchesReferenceExhaustive(t *testing.T) {
	db := testDB(t)
	id, ok := db.BenchIDOf("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	for i := 0; i < db.Lattice.Len(); i++ {
		s := db.Lattice.Setting(i)
		want, err := db.ReferencePerf("mcf", 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := *db.PerfAt(id, 0, i); got != want {
			t.Fatalf("lattice %d (%v): compiled %+v != reference %+v", i, s, got, want)
		}
	}
}

// TestRecompiledMatchesReferenceUnderOverride checks that Recompiled
// rebuilds the tables against the new system configuration (here: the
// bandwidth-partitioned memory controller the ablations enable).
func TestRecompiledMatchesReferenceUnderOverride(t *testing.T) {
	db := testDB(t)
	sys := db.Sys
	sys.Mem.PerCoreGBps = 3
	re := db.Recompiled(sys)
	if re.Sys.Mem.PerCoreGBps != 3 {
		t.Fatal("override lost")
	}
	s := db.Sys.BaselineSetting()
	got, err := re.Perf("mcf", 0, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := re.ReferencePerf("mcf", 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recompiled table %+v != reference %+v", got, want)
	}
	// The bandwidth cap must actually change the outcome for a
	// memory-intensive phase, and must not leak into the original.
	plain, err := db.Perf("mcf", 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds <= plain.Seconds {
		t.Fatalf("bandwidth cap did not slow mcf: %v vs %v", got.Seconds, plain.Seconds)
	}
}

func TestBenchInterning(t *testing.T) {
	db := testDB(t)
	for i, bd := range db.Benches {
		id, ok := db.BenchIDOf(bd.Name)
		if !ok || int(id) != i {
			t.Fatalf("BenchIDOf(%s) = %d, %t; want %d", bd.Name, id, ok, i)
		}
		if db.BenchName(id) != bd.Name {
			t.Fatalf("BenchName(%d) = %s", id, db.BenchName(id))
		}
		if bid, ok := db.BenchIDOfBytes([]byte(bd.Name)); !ok || bid != id {
			t.Fatalf("BenchIDOfBytes(%s) = %d, %t; want %d", bd.Name, bid, ok, id)
		}
	}
	if _, ok := db.BenchIDOf("nosuch"); ok {
		t.Fatal("unknown name interned")
	}
	long := []byte(strings.Repeat("x", 100))
	if _, ok := db.BenchIDOfBytes(long); ok {
		t.Fatal("unknown name interned")
	}
	if got := testing.AllocsPerRun(100, func() { db.BenchIDOfBytes(long) }); got != 0 {
		t.Fatalf("BenchIDOfBytes allocated %.0f times for a 100-byte name, want 0", got)
	}
	if db.NumBenches() != len(db.Benches) {
		t.Fatal("NumBenches mismatch")
	}
}

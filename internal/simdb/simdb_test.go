package simdb

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/simpoint"
	"qosrma/internal/trace"
)

// testDB builds a small database over a few benchmarks once per test run.
var cachedDB *DB

func testDB(t *testing.T) *DB {
	t.Helper()
	if cachedDB != nil {
		return cachedDB
	}
	sys := arch.DefaultSystemConfig(4)
	benches := []*trace.Benchmark{
		trace.ByName("mcf"), trace.ByName("libquantum"),
		trace.ByName("hmmer"), trace.ByName("gcc"),
	}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 20000, WarmupAccesses: 6000}
	db, err := Build(sys, benches, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cachedDB = db
	return db
}

// forEachRecord visits every (benchmark, phase) record in the database.
func forEachRecord(db *DB, f func(bench string, phase int, rec *PhaseRecord)) {
	for _, bd := range db.Benches {
		for p, rec := range bd.Phases {
			f(bd.Name, p, rec)
		}
	}
}

func TestBuildCoversAllPhases(t *testing.T) {
	db := testDB(t)
	for _, bd := range db.Benches {
		an := bd.Analysis
		for p := 0; p < an.NumPhases; p++ {
			rec, err := db.Record(bd.Name, p)
			if err != nil {
				t.Fatalf("missing record: %v", err)
			}
			if len(rec.Misses) != db.Sys.LLC.Assoc+1 {
				t.Fatalf("%s/%d: profile length %d", bd.Name, p, len(rec.Misses))
			}
			if len(bd.PerfTables[p]) != db.Lattice.Len() {
				t.Fatalf("%s/%d: table length %d, lattice %d", bd.Name, p, len(bd.PerfTables[p]), db.Lattice.Len())
			}
		}
	}
}

func TestMissProfilesMonotone(t *testing.T) {
	db := testDB(t)
	forEachRecord(db, func(bench string, phase int, rec *PhaseRecord) {
		for w := 1; w < len(rec.Misses); w++ {
			if rec.Misses[w] > rec.Misses[w-1]+1e-9 {
				t.Fatalf("%s phase %d: exact misses increase at w=%d", bench, phase, w)
			}
		}
		for c := range rec.Leading {
			for w := 1; w < len(rec.Leading[c]); w++ {
				if rec.Leading[c][w] > rec.Leading[c][w-1]+1e-9 {
					t.Fatalf("%s phase %d: leading misses increase at c=%d w=%d", bench, phase, c, w)
				}
			}
		}
	})
}

func TestLeadingBelowTotalMisses(t *testing.T) {
	db := testDB(t)
	forEachRecord(db, func(bench string, phase int, rec *PhaseRecord) {
		for c := range rec.Leading {
			for w := range rec.Leading[c] {
				if rec.Leading[c][w] > rec.Misses[w]+1e-9 {
					t.Fatalf("%s phase %d: leading > total at c=%d w=%d", bench, phase, c, w)
				}
			}
		}
	})
}

func TestLargerCoreNeverMoreLeadingMisses(t *testing.T) {
	db := testDB(t)
	forEachRecord(db, func(bench string, phase int, rec *PhaseRecord) {
		for w := range rec.Misses {
			small := rec.Leading[arch.SizeSmall][w]
			large := rec.Leading[arch.SizeLarge][w]
			if large > small+1e-9 {
				t.Fatalf("%s phase %d w=%d: large core has more leading misses (%v > %v)",
					bench, phase, w, large, small)
			}
		}
	})
}

func TestMcfIsCacheSensitiveLibquantumIsNot(t *testing.T) {
	db := testDB(t)
	mpki := func(bench string, w int) float64 {
		rec, err := db.Record(bench, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Misses[w] / (trace.SliceInstructions / 1000)
	}
	// mcf must lose a large relative share of its misses from 2 to 12 ways.
	if rel := (mpki("mcf", 2) - mpki("mcf", 12)) / mpki("mcf", 2); rel < 0.25 {
		t.Errorf("mcf relative MPKI drop = %.2f, want > 0.25 (cache sensitive)", rel)
	}
	// libquantum must stay roughly flat in relative terms.
	if rel := (mpki("libquantum", 2) - mpki("libquantum", 12)) / mpki("libquantum", 2); rel > 0.10 {
		t.Errorf("libquantum relative MPKI drop = %.2f, want < 0.10 (cache insensitive)", rel)
	}
}

func TestPerfBasics(t *testing.T) {
	db := testDB(t)
	s := db.Sys.BaselineSetting()
	pt, err := db.Perf("mcf", 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if pt.IPS() <= 0 || pt.TPI() <= 0 || pt.EPI() <= 0 {
		t.Fatalf("degenerate perf point: %+v", pt)
	}
	if math.Abs(pt.IPS()*pt.TPI()-1) > 1e-9 {
		t.Fatal("IPS and TPI inconsistent")
	}
	if math.Abs(pt.Seconds-pt.TPI()*trace.SliceInstructions) > 1e-9 {
		t.Fatal("Seconds inconsistent with TPI")
	}
}

func TestPerfFrequencyMonotone(t *testing.T) {
	db := testDB(t)
	s := db.Sys.BaselineSetting()
	var prev float64
	for fi := range db.Sys.DVFS {
		s.FreqIdx = fi
		pt, err := db.Perf("gcc", 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if pt.IPS() < prev-1e-6 {
			t.Fatalf("IPS decreased with frequency at idx %d", fi)
		}
		prev = pt.IPS()
	}
}

func TestPerfWaysHelpCacheSensitiveApp(t *testing.T) {
	db := testDB(t)
	s := db.Sys.BaselineSetting()
	s.Ways = 2
	lo, _ := db.Perf("mcf", 0, s)
	rec, _ := db.Record("mcf", 0)
	loMisses := rec.MissesAt(s)
	s.Ways = 12
	hi, _ := db.Perf("mcf", 0, s)
	if hi.IPS() <= lo.IPS() {
		t.Fatalf("more ways did not help mcf: %v vs %v", hi.IPS(), lo.IPS())
	}
	// DRAM energy is a fixed cost per miss.
	if rec.MissesAt(s) >= loMisses {
		t.Fatal("more ways did not cut DRAM accesses for mcf")
	}
}

func TestPerfUnknownBench(t *testing.T) {
	db := testDB(t)
	if _, err := db.Perf("nosuch", 0, db.Sys.BaselineSetting()); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if db.Analysis("nosuch") != nil {
		t.Fatal("expected no analysis for unknown benchmark")
	}
}

func TestSampledProfilesApproximateExact(t *testing.T) {
	db := testDB(t)
	forEachRecord(db, func(bench string, phase int, rec *PhaseRecord) {
		// Compare at the baseline allocation; sampling noise must be
		// bounded for the heavy-traffic phases that matter.
		w := db.Sys.BaselineWays()
		if rec.Misses[w] < 1e5 {
			return // tiny counts are allowed to be noisy
		}
		rel := math.Abs(rec.SampledMisses[w]-rec.Misses[w]) / rec.Misses[w]
		if rel > 0.25 {
			t.Errorf("%s phase %d: sampled profile off by %.1f%%", bench, phase, rel*100)
		}
	})
}

func TestWeightsConsistentWithAnalyses(t *testing.T) {
	db := testDB(t)
	for _, bd := range db.Benches {
		var sum float64
		for p := 0; p < bd.Analysis.NumPhases; p++ {
			rec, err := db.Record(bd.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			sum += rec.Weight
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: phase weights sum to %v", bd.Name, sum)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if db2.NumRecords() != db.NumRecords() {
		t.Fatalf("phase count %d != %d", db2.NumRecords(), db.NumRecords())
	}
	s := db.Sys.BaselineSetting()
	p1, _ := db.Perf("mcf", 0, s)
	p2, err := db2.Perf("mcf", 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("round-tripped database disagrees")
	}
}

// TestSaveLoadRoundTripsCompiledTables asserts that the serialized form
// carries the compiled lattice tables verbatim: every stored PerfPoint of
// every phase survives bit-for-bit, and the loaded database is query-ready.
func TestSaveLoadRoundTripsCompiledTables(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if db2.Lattice != db.Lattice {
		t.Fatalf("lattice %+v != %+v", db2.Lattice, db.Lattice)
	}
	for i, bd := range db.Benches {
		bd2 := db2.Benches[i]
		if bd2.Name != bd.Name || len(bd2.PerfTables) != len(bd.PerfTables) {
			t.Fatalf("bench %d mismatch: %s/%d vs %s/%d",
				i, bd2.Name, len(bd2.PerfTables), bd.Name, len(bd.PerfTables))
		}
		for p := range bd.PerfTables {
			if len(bd2.PerfTables[p]) != len(bd.PerfTables[p]) {
				t.Fatalf("%s/%d: table length %d != %d", bd.Name, p,
					len(bd2.PerfTables[p]), len(bd.PerfTables[p]))
			}
			for j := range bd.PerfTables[p] {
				if bd2.PerfTables[p][j] != bd.PerfTables[p][j] {
					t.Fatalf("%s/%d: table entry %d differs", bd.Name, p, j)
				}
			}
		}
	}
	// The intern index must be rebuilt: the interned fast path works.
	id, ok := db2.BenchIDOf("mcf")
	if !ok {
		t.Fatal("loaded database lost the intern index")
	}
	if pt := db2.PerfAt(id, 0, db2.Lattice.Index(db2.Sys.BaselineSetting())); pt.IPS() <= 0 {
		t.Fatalf("degenerate loaded perf point: %+v", pt)
	}
}

// TestLoadRejectsVersion2: a file saved before the compact 32-byte
// points (format version 2, fifteen float64s per point) is refused with
// the request to rebuild, not decoded into the new layout.
func TestLoadRejectsVersion2(t *testing.T) {
	var buf bytes.Buffer
	if err := testDB(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[len(dbMagic):], 2)
	_, err = Load(bytes.NewReader(gzipped(raw)))
	if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "rebuild the database") {
		t.Fatalf("version-2 database not rejected with the rebuild message: %v", err)
	}
}

func TestLoadRejectsOldFormat(t *testing.T) {
	// A version-1 database was a bare gob stream inside gzip, no magic.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(struct{ Whatever int }{42}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("old format not rejected: %v", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	io.WriteString(zw, "QOSRMADB")
	binary.Write(zw, binary.LittleEndian, uint32(99))
	zw.Close()
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("wrong version not rejected: %v", err)
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not gzip at all")); err == nil {
		t.Fatal("garbage accepted")
	}

	// Truncated stream: cut a valid database off mid-way.
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated database accepted")
	}

	// Structurally broken: tables missing for a phase. Re-encode a mutated
	// copy through the same writer and expect validation to reject it.
	mutant := *db
	mutant.Benches = append([]*BenchData(nil), db.Benches...)
	bd := *mutant.Benches[0]
	bd.PerfTables = bd.PerfTables[:0]
	mutant.Benches[0] = &bd
	var mbuf bytes.Buffer
	if err := mutant.Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&mbuf)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("structurally broken database not rejected: %v", err)
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	var benches []*trace.Benchmark
	for _, name := range []string{"bzip2", "gcc", "mcf", "lbm", "perlbench"} {
		benches = append(benches, trace.ByName(name))
	}
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 5000, WarmupAccesses: 1000}
	build := func(workers int) *DB {
		// Cold caches: the second build must redo SimPoint and profiling
		// on its own pool, not replay the first build's memo.
		ResetProfileCache()
		opt.Workers = workers
		db, err := Build(sys, benches, opt)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db1, db8 := build(1), build(8)
	if f1, f8 := db1.Fingerprint(), db8.Fingerprint(); f1 != f8 {
		t.Fatalf("fingerprint %s with 1 worker, %s with 8", f1, f8)
	}
	for i, bd := range db1.Benches {
		a1, a8 := bd.Analysis, db8.Benches[i].Analysis
		if a1 == a8 {
			t.Fatalf("%s: both builds share one analysis", bd.Name)
		}
		if a1.Bench != a8.Bench || a1.NumPhases != a8.NumPhases ||
			!slices.Equal(a1.PhaseTrace, a8.PhaseTrace) ||
			!slices.Equal(a1.Representative, a8.Representative) {
			t.Fatalf("%s: SimPoint analysis differs between 1 and 8 workers", bd.Name)
		}
		for p := range a1.Weight {
			if math.Float64bits(a1.Weight[p]) != math.Float64bits(a8.Weight[p]) {
				t.Fatalf("%s: phase %d weight %v with 1 worker, %v with 8", bd.Name, p, a1.Weight[p], a8.Weight[p])
			}
		}
	}
	forEachRecord(db1, func(bench string, phase int, r1 *PhaseRecord) {
		r8, err := db8.Record(bench, phase)
		if err != nil {
			t.Fatalf("missing %s phase %d in 8-worker build", bench, phase)
		}
		for w := range r1.Misses {
			if r1.Misses[w] != r8.Misses[w] {
				t.Fatalf("%s phase %d: miss profile differs at w=%d", bench, phase, w)
			}
		}
	})
}

func TestBuildRejectsInvalidSystem(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	sys.LLC.Assoc = 7 // not divisible by 4 cores
	_, err := Build(sys, []*trace.Benchmark{trace.ByName("lbm")}, DefaultBuildOptions())
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPerfClampsWays(t *testing.T) {
	db := testDB(t)
	s := db.Sys.BaselineSetting()
	s.Ways = 999
	if _, err := db.Perf("mcf", 0, s); err != nil {
		t.Fatalf("way clamping failed: %v", err)
	}
	s.Ways = -1
	if _, err := db.Perf("mcf", 0, s); err != nil {
		t.Fatalf("negative ways should clamp: %v", err)
	}
}

func TestPhaseTraceMatchesSimpoint(t *testing.T) {
	db := testDB(t)
	b := trace.ByName("gcc")
	an := simpoint.Analyze(b, DefaultBuildOptions().SimPoint)
	id, ok := db.BenchIDOf("gcc")
	if !ok {
		t.Fatal("gcc missing from the database")
	}
	tr := db.PhaseTraceAt(id)
	if len(tr) != len(an.PhaseTrace) {
		t.Fatalf("trace length %d != %d", len(tr), len(an.PhaseTrace))
	}
}

// IPS returns instructions per second.
func (pt PerfPoint) IPS() float64 { return sliceInstr / pt.Seconds }

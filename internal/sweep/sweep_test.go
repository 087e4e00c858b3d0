package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/workload"
)

// testDB is a lightweight database stand-in: Key() and Compile() only read
// the system config and the map sizes, so no detailed simulation is needed
// for engine-level tests (the stubbed executor never touches the phases).
func testDB(cores int) *simdb.DB {
	return &simdb.DB{Sys: arch.DefaultSystemConfig(cores)}
}

func mix(name string, apps ...string) workload.Mix {
	return workload.Mix{Name: name, Apps: apps}
}

// stubExec returns a deterministic fake result derived from the spec, and
// counts invocations.
func stubExec(calls *atomic.Int64) func(RunSpec) (*rmasim.Result, error) {
	return func(spec RunSpec) (*rmasim.Result, error) {
		calls.Add(1)
		savings := float64(spec.Scheme)*0.01 + float64(spec.Model)*0.001 + spec.Slack
		return &rmasim.Result{Scheme: spec.Scheme.String(), EnergySavings: savings}, nil
	}
}

func TestCompileOrderAndDefaults(t *testing.T) {
	db := testDB(4)
	spec := Spec{
		Name:    "t",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model2},
		Slacks:  []float64{0, 0.4},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("compiled %d points, want 8", len(points))
	}
	// Mixes outermost, then schemes, then slack levels innermost.
	want := []struct {
		mix    string
		scheme core.Scheme
		slack  float64
	}{
		{"a", core.SchemeDVFSOnly, 0}, {"a", core.SchemeDVFSOnly, 0.4},
		{"a", core.SchemeCoordDVFSCache, 0}, {"a", core.SchemeCoordDVFSCache, 0.4},
		{"b", core.SchemeDVFSOnly, 0}, {"b", core.SchemeDVFSOnly, 0.4},
		{"b", core.SchemeCoordDVFSCache, 0}, {"b", core.SchemeCoordDVFSCache, 0.4},
	}
	for i, w := range want {
		p := points[i]
		if p.Mix.Name != w.mix || p.Scheme != w.scheme || p.Slack != w.slack {
			t.Fatalf("point %d = %s/%v/%v, want %s/%v/%v",
				i, p.Mix.Name, p.Scheme, p.Slack, w.mix, w.scheme, w.slack)
		}
		if p.Oracle || p.Feedback || p.BaselineFreqIdx != -1 || p.SwitchScale != 0 {
			t.Fatalf("point %d did not get neutral axis defaults: %+v", i, p)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := (&Spec{}).Compile(); err == nil {
		t.Fatal("empty spec compiled")
	}
	bad := Spec{DB: testDB(4), Mixes: []workload.Mix{mix("a", "mcf")}}
	if _, err := bad.Compile(); err == nil {
		t.Fatal("grid without schemes compiled")
	}
	bad.Schemes = []core.Scheme{core.SchemeDVFSOnly}
	if _, err := bad.Compile(); err == nil {
		t.Fatal("grid without models compiled")
	}
	noDB := Spec{Points: []RunSpec{{Mix: mix("a", "mcf")}}}
	if _, err := noDB.Compile(); err == nil {
		t.Fatal("explicit point without database compiled")
	}
}

func TestCompilePointInheritsDB(t *testing.T) {
	db := testDB(4)
	spec := Spec{DB: db, Points: []RunSpec{{Mix: mix("a", "mcf")}}}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].DB != db {
		t.Fatal("explicit point did not inherit the spec database")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	db := testDB(4)
	base := RunSpec{DB: db, Mix: mix("m", "mcf", "lbm", "milc", "namd"),
		Scheme: core.SchemeCoordDVFSCache, Model: core.Model2, BaselineFreqIdx: -1}

	uniform := base
	uniform.Slack = 0.4
	vector := base
	vector.PerCoreSlack = []float64{0.4, 0.4, 0.4, 0.4}
	if uniform.Key() != vector.Key() {
		t.Fatal("uniform slack and equivalent per-core vector hash differently")
	}

	zeros := base
	zeros.PerCoreSlack = []float64{0, 0, 0, 0}
	if zeros.Key() != base.Key() {
		t.Fatal("all-zero slack vector and nil slack hash differently")
	}

	keep := base
	explicit := base
	explicit.BaselineFreqIdx = db.Sys.BaselineFreqIdx
	if keep.Key() != explicit.Key() {
		t.Fatal("explicit baseline equal to the system baseline hashes differently")
	}

	identity := base
	identity.SwitchScale = 1
	if identity.Key() != base.Key() {
		t.Fatal("switch scale x1 and unset hash differently")
	}

	other := base
	other.Model = core.Model3
	if other.Key() == base.Key() {
		t.Fatal("different models hash identically")
	}
}

func TestEngineMatchesSerialExecution(t *testing.T) {
	db := testDB(4)
	spec := Spec{
		Name:    "serial-check",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm"), mix("c", "milc")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemePartitionOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model1, core.Model2},
		Slacks:  []float64{0, 0.2, 0.4},
	}
	var calls atomic.Int64
	exec := stubExec(&calls)

	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]*rmasim.Result, len(points))
	for i, p := range points {
		serial[i], err = exec(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	calls.Store(0)

	eng := testEngine(exec, 7)
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(serial) {
		t.Fatalf("engine produced %d results, want %d", len(res.Results), len(serial))
	}
	for i := range serial {
		if res.Results[i].EnergySavings != serial[i].EnergySavings {
			t.Fatalf("point %d: engine %.4f != serial %.4f",
				i, res.Results[i].EnergySavings, serial[i].EnergySavings)
		}
	}
	if got := calls.Load(); got != int64(len(points)) {
		t.Fatalf("engine ran %d simulations for %d distinct points", got, len(points))
	}
}

func TestEngineCacheHitsAcrossSweeps(t *testing.T) {
	db := testDB(4)
	var calls atomic.Int64
	eng := testEngine(stubExec(&calls), 0)
	spec := Spec{
		Name:    "cached",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm")},
		Schemes: []core.Scheme{core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model2},
		Slacks:  []float64{0, 0.4},
	}
	first, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("first run simulated %d points, want 4", calls.Load())
	}
	second, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatalf("cached re-run simulated %d extra points, want 0", calls.Load()-4)
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Fatalf("point %d: cached result differs from the original", i)
		}
	}
	hits, misses := eng.Cache().Stats()
	if hits != 4 || misses != 4 {
		t.Fatalf("cache stats hits=%d misses=%d, want 4/4", hits, misses)
	}

	// An overlapping sweep re-simulates only its new points.
	overlap := spec
	overlap.Slacks = []float64{0.4, 0.8}
	if _, err := eng.Run(overlap); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 {
		t.Fatalf("overlapping sweep simulated %d total points, want 6", calls.Load())
	}
}

func TestEngineDeduplicatesWithinBatch(t *testing.T) {
	db := testDB(4)
	var calls atomic.Int64
	eng := testEngine(stubExec(&calls), 8)
	p := RunSpec{DB: db, Mix: mix("m", "mcf"), Scheme: core.SchemeCoordDVFSCache,
		Model: core.Model2, BaselineFreqIdx: -1}
	specs := make([]RunSpec, 32)
	for i := range specs {
		specs[i] = p
	}
	results, err := eng.ExecuteAll(specs, "dup")
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("32 identical in-flight points ran %d simulations, want 1", calls.Load())
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("deduplicated points returned different results")
		}
	}
}

func TestEngineAggregatesAllErrors(t *testing.T) {
	db := testDB(4)
	errBoom := errors.New("boom")
	eng := testEngine(func(spec RunSpec) (*rmasim.Result, error) {
		if strings.HasPrefix(spec.Mix.Name, "bad") {
			return nil, fmt.Errorf("%s: %w", spec.Mix.Name, errBoom)
		}
		return &rmasim.Result{}, nil
	}, 0)
	specs := []RunSpec{
		{DB: db, Mix: mix("good1", "mcf")},
		{DB: db, Mix: mix("bad1", "lbm")},
		{DB: db, Mix: mix("bad2", "milc")},
		{DB: db, Mix: mix("good2", "namd")},
	}
	_, err := eng.ExecuteAll(specs, "errs")
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("aggregate lost the cause: %v", err)
	}
	for _, want := range []string{"bad1", "bad2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregate %q is missing point %s", err, want)
		}
	}
	// Failed points must not be cached: a retry re-executes them.
	if _, err := eng.ExecuteAll(specs[:1], "retry"); err != nil {
		t.Fatalf("healthy point poisoned by failed batch: %v", err)
	}
}

func TestEngineStreamsRowsInOrder(t *testing.T) {
	db := testDB(4)
	var calls atomic.Int64
	var got []Row
	em := emitterFunc(func(r Row) error {
		got = append(got, r)
		return nil
	})
	eng := testEngine(stubExec(&calls), 4)
	eng.SetEmitter(em)
	spec := Spec{
		Name:    "stream",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm"), mix("c", "milc")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model2},
	}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Results) {
		t.Fatalf("emitted %d rows for %d points", len(got), len(res.Results))
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("row %d emitted with index %d: emission not in point order", i, r.Index)
		}
		if r.Sweep != "stream" {
			t.Fatalf("row %d has sweep name %q", i, r.Sweep)
		}
	}
}

// emitterFunc adapts a function to emit.Emitter.
type emitterFunc func(Row) error

func (f emitterFunc) Emit(r Row) error { return f(r) }
func (emitterFunc) Close() error       { return nil }

func TestCSVAndJSONEmitters(t *testing.T) {
	rows := []Row{
		{Sweep: "s", Index: 0, Mix: "a", Apps: "mcf+lbm", Scheme: "RM2", Model: "Model2",
			Slack: []float64{0.4, 0}, BaselineFreqIdx: -1, EnergySavings: 0.123},
		{Sweep: "s", Index: 1, Mix: "b", Apps: "milc+namd", Scheme: "RM3", Model: "Model3",
			BaselineFreqIdx: -1, EnergySavings: 0.05, Violations: 2},
	}
	var csvOut strings.Builder
	if err := emit.Write("csv", &csvOut, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), csvOut.String())
	}
	if !strings.HasPrefix(lines[0], "sweep,index,mix,apps,scheme,model") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], "0.4|0") || !strings.Contains(lines[1], "0.123") {
		t.Fatalf("CSV row wrong: %s", lines[1])
	}

	var jsonOut strings.Builder
	if err := emit.Write("json", &jsonOut, rows); err != nil {
		t.Fatal(err)
	}
	jlines := strings.Split(strings.TrimSpace(jsonOut.String()), "\n")
	if len(jlines) != 2 {
		t.Fatalf("JSON lines output has %d lines, want 2", len(jlines))
	}
	if !strings.Contains(jlines[0], `"mix":"a"`) || !strings.Contains(jlines[0], `"energy_savings":0.123`) {
		t.Fatalf("JSON row wrong: %s", jlines[0])
	}

	if _, err := emit.New[Row]("xml", nil); err == nil {
		t.Fatal("unknown emitter format accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	db := testDB(4)
	var calls atomic.Int64
	eng := testEngine(stubExec(&calls), 0)
	res, err := eng.Run(Spec{
		Name:    "helpers",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rm2 := res.Select(func(p RunSpec) bool { return p.Scheme == core.SchemeCoordDVFSCache })
	if len(rm2) != 2 {
		t.Fatalf("Select returned %d results, want 2", len(rm2))
	}
	rows := res.Rows()
	if len(rows) != 4 || rows[3].Index != 3 || rows[3].Sweep != "helpers" {
		t.Fatalf("Rows misaligned: %+v", rows)
	}
}

// BenchmarkEngineDispatch measures the engine's per-point overhead
// (compile, hash, pool dispatch, cache) with the simulation stubbed out.
func BenchmarkEngineDispatch(b *testing.B) {
	db := testDB(4)
	spec := Spec{
		Name:    "bench",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm"), mix("c", "milc"), mix("d", "namd")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemePartitionOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model1, core.Model2, core.Model3},
		Slacks:  []float64{0, 0.2, 0.4, 0.6},
	}
	exec := func(RunSpec) (*rmasim.Result, error) { return &rmasim.Result{}, nil }
	b.ReportMetric(float64(len(spec.Mixes)*len(spec.Schemes)*len(spec.Models)*len(spec.Slacks)), "points")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine each iteration so every point misses the cache.
		if _, err := testEngine(exec, 0).Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheHit measures a fully-cached sweep re-run.
func BenchmarkEngineCacheHit(b *testing.B) {
	db := testDB(4)
	spec := Spec{
		Name:    "bench-cached",
		DB:      db,
		Mixes:   []workload.Mix{mix("a", "mcf"), mix("b", "lbm"), mix("c", "milc"), mix("d", "namd")},
		Schemes: []core.Scheme{core.SchemeDVFSOnly, core.SchemePartitionOnly, core.SchemeCoordDVFSCache},
		Models:  []core.ModelKind{core.Model1, core.Model2, core.Model3},
		Slacks:  []float64{0, 0.2, 0.4, 0.6},
	}
	exec := func(RunSpec) (*rmasim.Result, error) { return &rmasim.Result{}, nil }
	eng := testEngine(exec, 0)
	if _, err := eng.Run(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// testEngine is an engine whose points run exec, on workers goroutines
// when workers is positive.
func testEngine(exec func(RunSpec) (*rmasim.Result, error), workers int) *Engine {
	e := NewEngine()
	e.exec = exec
	if workers > 0 {
		e.workers = workers
	}
	return e
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/sched"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/trace"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

// testDB builds a small 4-core database over a subset of the suite once
// per test process. Kept light enough (≈1s with the shared profile cache)
// that the service determinism tests can run in the short CI lane.
func testDB(t testing.TB) *simdb.DB {
	t.Helper()
	dbOnce.Do(func() {
		sys := arch.DefaultSystemConfig(4)
		dbInst, dbErr = simdb.Build(sys, trace.Suite()[:8], simdb.DefaultBuildOptions())
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbInst
}

// testServer wraps a Server in an httptest listener.
func testServer(t testing.TB, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(testDB(t), nil, opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// postJSON posts a body and decodes the response into out, returning the
// HTTP status.
func postJSON(t testing.TB, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// libraryDecide is the reference: the sequential invocation order against
// a fresh manager, exactly as a library caller would drive it.
func libraryDecide(db *simdb.DB, scheme core.Scheme, model core.ModelKind, slack []float64, apps []AppQuery) (bool, []arch.Setting) {
	mgr := core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: scheme,
		Model:  model,
		Slack:  append([]float64(nil), slack...),
	})
	var (
		settings []arch.Setting
		ok       bool
	)
	for i, app := range apps {
		id, found := db.BenchIDOf(app.Bench)
		if !found {
			panic("unknown bench in reference path")
		}
		settings, ok = mgr.Decide(i, OracleStats(db, id, app.Phase, i))
	}
	return ok, settings
}

// queryFor builds a deterministic co-phase query from an RNG.
func queryFor(db *simdb.DB, rng *stats.RNG, scheme string, slack float64) DecideQuery {
	names := db.BenchNames()
	apps := make([]AppQuery, db.Sys.NumCores)
	for c := range apps {
		name := names[rng.Intn(len(names))]
		apps[c] = AppQuery{Bench: name, Phase: rng.Intn(db.Analysis(name).NumPhases)}
	}
	return DecideQuery{Scheme: scheme, Slack: slack, Apps: apps}
}

// settingsOf converts a wire answer back to arch settings.
func settingsOf(db *simdb.DB, ans DecideAnswer) []arch.Setting {
	out := make([]arch.Setting, len(ans.Settings))
	for i, s := range ans.Settings {
		var size arch.CoreSize
		switch s.Size {
		case arch.SizeSmall.String():
			size = arch.SizeSmall
		case arch.SizeMedium.String():
			size = arch.SizeMedium
		case arch.SizeLarge.String():
			size = arch.SizeLarge
		}
		out[i] = arch.Setting{Size: size, FreqIdx: s.FreqIdx, Ways: s.Ways}
	}
	return out
}

// TestDecideMatchesLibrary pins the service's central invariant: for every
// scheme, the served answer is bit-identical to the direct library calls.
func TestDecideMatchesLibrary(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 3, CacheSize: 8})
	schemes := []struct {
		wire   string
		scheme core.Scheme
		model  core.ModelKind
	}{
		{"static", core.SchemeStatic, core.Model2},
		{"dvfs", core.SchemeDVFSOnly, core.Model2},
		{"rm1", core.SchemePartitionOnly, core.Model2},
		{"rm2", core.SchemeCoordDVFSCache, core.Model2},
		{"rm3", core.SchemeCoordCoreDVFSCache, core.Model3},
		{"ucp", core.SchemeUCPDVFS, core.Model2},
	}
	rng := stats.NewRNG(stats.SeedFrom(7, "service/decide-test"))
	for _, sc := range schemes {
		for trial := 0; trial < 4; trial++ {
			q := queryFor(db, rng, sc.wire, 0.2)
			var resp DecideResponse
			if code := postJSON(t, ts.URL+"/v1/decide", q, &resp); code != http.StatusOK {
				t.Fatalf("%s: status %d", sc.wire, code)
			}
			wantOK, wantSettings := libraryDecide(db, sc.scheme, sc.model,
				[]float64{0.2, 0.2, 0.2, 0.2}, q.Apps)
			if resp.Result.Decided != wantOK {
				t.Fatalf("%s trial %d: decided=%v, library says %v", sc.wire, trial, resp.Result.Decided, wantOK)
			}
			if !wantOK {
				continue
			}
			got := settingsOf(db, *resp.Result)
			for i := range got {
				if got[i] != wantSettings[i] {
					t.Fatalf("%s trial %d core %d: served %v, library %v",
						sc.wire, trial, i, got[i], wantSettings[i])
				}
			}
		}
	}
}

// TestShardManagersBounded: clients choose the slack freely, so a shard
// that meets 10× managerLimit distinct slacks keeps at most managerLimit
// managers, and every answer equals a fresh library manager's — also on
// a second lap, whose managers were emptied out and rebuilt. The
// qosrmad_decide_managers gauge and qosrmad_decide_manager_resets_total
// counter on /metrics report the pool size and every emptying, and the
// live heap after the run stays under managerHeapCeiling.
func TestShardManagersBounded(t *testing.T) {
	srv, sh, _ := testShardQuery(t)
	db := testDB(t)
	sn := srv.snap.Load()
	rng := stats.NewRNG(stats.SeedFrom(11, "service/manager-bound"))
	distinct, decided, resets := 10*managerLimit, 0, 0
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap0 := ms0.HeapAlloc
	for i := 0; i < distinct+managerLimit; i++ {
		pool := len(sh.mgrs)
		s := float64(1+i%distinct) / 1000
		dq := queryFor(db, rng, "rm2", s)
		q, err := resolveQueryRef(sn, &dq)
		if err != nil {
			t.Fatal(err)
		}
		got := sh.compute(q)
		if len(sh.mgrs) > managerLimit {
			t.Fatalf("query %d: shard holds %d managers, bound %d", i, len(sh.mgrs), managerLimit)
		}
		if len(sh.mgrs) < pool {
			resets++
		}
		if i%managerLimit == 0 || i == distinct+managerLimit-1 {
			if got := scrapeMetric(t, srv, `qosrmad_decide_managers{shard="0"}`); got != float64(len(sh.mgrs)) {
				t.Fatalf("query %d: managers gauge %v, pool holds %d", i, got, len(sh.mgrs))
			}
			if got := scrapeMetric(t, srv, `qosrmad_decide_manager_resets_total{shard="0"}`); got != float64(resets) {
				t.Fatalf("query %d: manager resets counter %v, pool was emptied %d times", i, got, resets)
			}
		}
		slack := make([]float64, db.Sys.NumCores)
		for c := range slack {
			slack[c] = s
		}
		wantOK, want := libraryDecide(db, core.SchemeCoordDVFSCache, core.Model2, slack, dq.Apps)
		if got.decided != wantOK {
			t.Fatalf("query %d (slack %g): decided=%v, library says %v", i, s, got.decided, wantOK)
		}
		if !wantOK {
			continue
		}
		decided++
		for c := range want {
			if got.settings[c] != want[c] {
				t.Fatalf("query %d (slack %g) core %d: served %v, library %v", i, s, c, got.settings[c], want[c])
			}
		}
	}
	if decided == 0 {
		t.Fatal("no query was decided: the settings were never compared")
	}
	if resets < distinct/managerLimit {
		t.Fatalf("pool emptied %d times over %d distinct configurations, want at least %d",
			resets, distinct, distinct/managerLimit)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	grew := int64(ms.HeapAlloc) - int64(heap0)
	t.Logf("live heap grew %d KiB over %d configurations", grew>>10, distinct+managerLimit)
	if grew > managerHeapCeiling {
		t.Fatalf("live heap grew %d KiB over %d configurations, ceiling %d KiB",
			grew>>10, distinct+managerLimit, managerHeapCeiling>>10)
	}
}

// managerHeapCeiling bounds the live heap one shard's manager pool may
// add in TestShardManagersBounded. A full 64-manager pool measured
// 351-421 KiB on linux/amd64 (go1.24), so the ceiling leaves about 2.4x
// headroom; with managerLimit raised to 1024 the same test measured
// 6843 KiB and fails here.
const managerHeapCeiling = 1 << 20

// scrapeMetric reads one series' value from srv's /metrics page.
func scrapeMetric(t *testing.T, srv *Server, series string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestConcurrentDecideDeterministic pins the second acceptance invariant:
// concurrent batched requests answer identically to sequential library
// calls, independent of shard count, batch size and cache capacity.
func TestConcurrentDecideDeterministic(t *testing.T) {
	db := testDB(t)
	// Reference answers for a fixed query set.
	rng := stats.NewRNG(stats.SeedFrom(11, "service/concurrent-test"))
	const numQueries = 40
	queries := make([]DecideQuery, numQueries)
	want := make([][]arch.Setting, numQueries)
	wantOK := make([]bool, numQueries)
	for i := range queries {
		queries[i] = queryFor(db, rng, "rm2", 0.3)
		wantOK[i], want[i] = libraryDecide(db, core.SchemeCoordDVFSCache, core.Model2,
			[]float64{0.3, 0.3, 0.3, 0.3}, queries[i].Apps)
	}

	for _, opt := range []Options{
		{Shards: 1, CacheSize: 4},
		{Shards: 4, CacheSize: 1024},
	} {
		_, ts := testServer(t, opt)
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine sends overlapping batches, rotated so the
				// same keys hit the cache from different orders.
				for round := 0; round < 3; round++ {
					lo := (g*5 + round*7) % numQueries
					batch := make([]DecideQuery, 0, 10)
					for k := 0; k < 10; k++ {
						batch = append(batch, queries[(lo+k)%numQueries])
					}
					var resp DecideResponse
					code := postJSON(t, ts.URL+"/v1/decide", DecideRequest{Queries: batch}, &resp)
					if code != http.StatusOK {
						errCh <- fmt.Errorf("status %d", code)
						return
					}
					for k, ans := range resp.Results {
						qi := (lo + k) % numQueries
						if ans.Decided != wantOK[qi] {
							errCh <- fmt.Errorf("query %d: decided=%v, want %v", qi, ans.Decided, wantOK[qi])
							return
						}
						got := settingsOf(db, ans)
						for c := range got {
							if wantOK[qi] && got[c] != want[qi][c] {
								errCh <- fmt.Errorf("query %d core %d: %v != %v", qi, c, got[c], want[qi][c])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("shards=%d: %v", opt.Shards, err)
		}
	}
}

// TestDecideRejectsBadRequests: malformed requests answer 4xx, never 5xx.
func TestDecideRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{Shards: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{"apps": [`},
		{"wrong arity", `{"apps":[{"bench":"mcf","phase":0}]}`},
		{"unknown bench", `{"apps":[{"bench":"nope","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
		{"phase out of range", `{"apps":[{"bench":"mcf","phase":99},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
		{"bad scheme", `{"scheme":"rm9","apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
		{"bad model", `{"model":7,"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
		{"negative slack", `{"slack":-1,"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
		{"bad slack arity", `{"slacks":[0.1],"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s: status %d, want 4xx", tc.name, resp.StatusCode)
		}
	}
}

// TestScoreMatchesScorer: the endpoint equals a direct sched.Scorer call,
// and placement picks the argmax machine.
func TestScoreMatchesScorer(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 1})
	names := db.BenchNames()

	apps := []string{names[0], names[1]}
	var resp ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Apps: apps}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := sched.NewScorer(db).Score(apps)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Score == nil || *resp.Score != want {
		t.Fatalf("served score %v, library %v", resp.Score, want)
	}

	machines := [][]string{{names[2]}, {names[0], names[1], names[2], names[3]}, {names[4], names[5]}}
	var place ScoreResponse
	code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Candidate: names[1], Machines: machines}, &place)
	if code != http.StatusOK {
		t.Fatalf("placement status %d", code)
	}
	if place.Best == nil || place.Scores[1] != nil {
		t.Fatalf("placement answer malformed: %+v", place)
	}
	sc := sched.NewScorer(db)
	best, bestScore := -1, 0.0
	for i, m := range machines {
		if len(m) >= db.Sys.NumCores {
			continue
		}
		v, err := sc.Score(append(append([]string{}, m...), names[1]))
		if err != nil {
			t.Fatal(err)
		}
		if best < 0 || v > bestScore {
			best, bestScore = i, v
		}
	}
	if *place.Best != best {
		t.Fatalf("placement chose machine %d, library argmax is %d", *place.Best, best)
	}

	// Full fleet: no room anywhere.
	full := [][]string{{names[0], names[1], names[2], names[3]}}
	code = postJSON(t, ts.URL+"/v1/score", ScoreRequest{Candidate: names[0], Machines: full}, nil)
	if code != http.StatusConflict {
		t.Fatalf("full fleet placement: status %d, want 409", code)
	}
}

// TestSweepJobLifecycle: submit, poll to completion, download both
// formats, and check the rows came in deterministic grid order.
func TestSweepJobLifecycle(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 1})
	names := db.BenchNames()
	req := SweepRequest{
		Name:      "svc-test",
		Workloads: [][]string{{names[0], names[1], names[2], names[3]}},
		Schemes:   []string{"dvfs", "rm2"},
		Slacks:    []float64{0, 0.4},
	}
	var status SweepJobStatus
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &status); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if status.Points != 4 {
		t.Fatalf("compiled %d points, want 4", status.Points)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for status.State == "running" {
		if time.Now().After(deadline) {
			t.Fatal("sweep job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/sweep/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if status.State != "done" {
		t.Fatalf("job state %q: %s", status.State, status.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/sweep/" + status.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	csvBuf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "sweep,index,") {
		t.Fatalf("CSV result malformed:\n%s", csvBuf.String())
	}
	resp, err = http.Get(ts.URL + "/v1/sweep/" + status.ID + "/result?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	jsonBuf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if !strings.Contains(jsonBuf.String(), `"sweep":"svc-test"`) {
		t.Fatalf("JSON result malformed:\n%s", jsonBuf.String())
	}

	// Format names match in any letter case, with unchanged media types,
	// and an unknown one is a client error.
	for _, c := range []struct {
		format, mime string
		code         int
		body         string
	}{
		{"", "text/csv", http.StatusOK, csvBuf.String()},
		{"JSON", "application/json", http.StatusOK, jsonBuf.String()},
		{"ndjson", "application/json", http.StatusOK, jsonBuf.String()},
		{"xml", "", http.StatusBadRequest, ""},
	} {
		resp, err := http.Get(ts.URL + "/v1/sweep/" + status.ID + "/result?format=" + c.format)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("format=%s: status %d, want %d", c.format, resp.StatusCode, c.code)
		}
		if c.code != http.StatusOK {
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != c.mime {
			t.Fatalf("format=%s: Content-Type %q, want %q", c.format, got, c.mime)
		}
		if body.String() != c.body {
			t.Fatalf("format=%s streamed\n%s\nwant\n%s", c.format, body.String(), c.body)
		}
	}
	if n := strings.Count(jsonBuf.String(), "\n"); n != 4 {
		t.Fatalf("JSON result has %d lines, want one per point (4)", n)
	}

	// Unknown job and bad spec answer 4xx.
	if resp, err = http.Get(ts.URL + "/v1/sweep/job-999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty sweep: status %d", code)
	}
	// A wrong-arity slack vector must be rejected at submit time: it
	// would panic core.NewManager deep inside the engine's pool, where
	// no handler-side recover can reach.
	code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads:    [][]string{{names[0], names[1], names[2], names[3]}},
		Schemes:      []string{"rm2"},
		SlackVectors: [][]float64{{0.1, 0.2}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad slack vector: status %d, want 400", code)
	}
}

// TestHealthzAndMeta exercises the liveness and metadata endpoints.
func TestHealthzAndMeta(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 2})

	var m Meta
	resp, err := http.Get(ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.NumCores != 4 || len(m.Benches) != db.NumBenches() || m.Shards != 2 {
		t.Fatalf("meta malformed: %+v", m)
	}

	// One decision so the counters move.
	rng := stats.NewRNG(stats.SeedFrom(3, "service/healthz-test"))
	q := queryFor(db, rng, "rm2", 0)
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}
	var h HealthStats
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Decide.Queries != 1 || h.Decide.Shards != 2 {
		t.Fatalf("healthz malformed: %+v", h)
	}
}

// TestDecideAfterCloseFailsFast: a closed server answers 503 instead of
// deciding.
func TestDecideAfterCloseFailsFast(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1})
	rng := stats.NewRNG(stats.SeedFrom(9, "service/close-test"))
	q := queryFor(db, rng, "rm2", 0)
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("decide before close: status %d", code)
	}
	srv.Close()
	srv.Close() // idempotent
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("decide after close: status %d, want 503", code)
	}
}

// TestSweepJobEviction: the job table is bounded — at the cap the oldest
// finished job is evicted and its id stops resolving.
func TestSweepJobEviction(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 1, MaxJobs: 1})
	names := db.BenchNames()
	submit := func() SweepJobStatus {
		var st SweepJobStatus
		code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
			Workloads: [][]string{{names[0], names[1], names[2], names[3]}},
			Schemes:   []string{"static"},
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for st.State == "running" {
			if time.Now().After(deadline) {
				t.Fatal("sweep job did not finish")
			}
			time.Sleep(10 * time.Millisecond)
			resp, err := http.Get(ts.URL + "/v1/sweep/" + st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		return st
	}
	first := submit()
	second := submit() // evicts the finished first job
	resp, err := http.Get(ts.URL + "/v1/sweep/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job answered %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/sweep/" + second.ID); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retained job answered %d", resp.StatusCode)
	}
}

// TestDecideCacheHits: repeating one query is served from the shard LRU.
func TestDecideCacheHits(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1, CacheSize: 16})
	rng := stats.NewRNG(stats.SeedFrom(5, "service/cache-test"))
	q := queryFor(db, rng, "rm2", 0.1)
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
			t.Fatalf("decide status %d", code)
		}
	}
	var hits uint64
	for _, sh := range srv.shards {
		hits += sh.hits.Load()
	}
	if hits != 4 {
		t.Fatalf("cache hits %d, want 4", hits)
	}
}

// Tests for the live-ops control plane: the route contract, the metrics
// exposition, atomic hot-swap (including under concurrent load, where no
// response may ever mix two databases), graceful drain, and the
// self-checker's corruption detection with its healthz degradation.
package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/ops"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
)

// getJSON fetches a URL and decodes the JSON body, returning the status.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// altDB derives a second database from the shared test database by moving
// the baseline frequency: cheap (tables are shared) but answer-changing,
// which is exactly what the swap tests need.
func altDB(t testing.TB) *simdb.DB {
	t.Helper()
	db := testDB(t)
	sys := db.Sys
	sys.BaselineFreqIdx = (sys.BaselineFreqIdx + 1) % len(sys.DVFS)
	return db.WithSys(sys)
}

// TestRouteContract pins the full HTTP surface: adding or removing a
// route must be a conscious API change (and documented — the docs-check
// CI target greps this same list out of docs/api.md).
func TestRouteContract(t *testing.T) {
	srv, _ := testServer(t, Options{Shards: 1})
	want := []string{
		"GET /v1/healthz",
		"GET /v1/meta",
		"POST /v1/decide",
		"POST /v1/score",
		"POST /v1/sweep",
		"GET /v1/sweep/{id}",
		"GET /v1/sweep/{id}/result",
		"GET /metrics",
		"GET /admin/status",
		"POST /admin/reload",
		"POST /admin/check",
	}
	got := srv.Routes()
	if len(got) != len(want) {
		t.Fatalf("route surface changed:\ngot  %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("route %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMetricsExposition: /metrics speaks the Prometheus text format and
// carries the catalog documented in docs/operations.md.
func TestMetricsExposition(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 1, CacheSize: 16})
	rng := stats.NewRNG(stats.SeedFrom(21, "service/metrics-test"))
	q := queryFor(db, rng, "rm2", 0.1)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
			t.Fatalf("decide status %d", code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	if _, err := copyBody(&sb, resp); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`qosrmad_decide_queries_total{shard="0"} 3`,
		`qosrmad_decide_cache_hits_total{shard="0"} 2`,
		`qosrmad_decide_cache_hit_ratio 0.6666666666666666`,
		`qosrmad_decide_request_seconds_count 3`,
		`qosrmad_decide_batch_size_bucket{le="1"} 3`,
		`qosrmad_snapshot_generation 1`,
		`qosrmad_snapshot_info{hash="` + db.Fingerprint() + `",source="built"} 1`,
		`qosrmad_reloads_total 0`,
		`qosrmad_draining 0`,
		`qosrmad_score_requests_total 0`,
		`qosrmad_sweep_jobs{state="running"} 0`,
		`qosrmad_audit_total{result="pass"} 0`,
		`# TYPE qosrmad_decide_request_seconds histogram`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// copyBody drains an HTTP response body into a builder.
func copyBody(sb *strings.Builder, resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	sb.Write(b)
	return int64(len(b)), err
}

// TestMetaAndStatusReportVersion: /v1/meta and /admin/status surface the
// snapshot hash, generation and source.
func TestMetaAndStatusReportVersion(t *testing.T) {
	db := testDB(t)
	_, ts := testServer(t, Options{Shards: 2})
	var m Meta
	if code := getJSON(t, ts.URL+"/v1/meta", &m); code != http.StatusOK {
		t.Fatalf("meta status %d", code)
	}
	if m.DBHash != db.Fingerprint() || m.DBGen != 1 || m.DBSource != "built" {
		t.Fatalf("meta version wrong: hash=%q gen=%d source=%q", m.DBHash, m.DBGen, m.DBSource)
	}
	var st AdminStatus
	if code := getJSON(t, ts.URL+"/admin/status", &st); code != http.StatusOK {
		t.Fatalf("status status %d", code)
	}
	if st.Snapshot.Hash != db.Fingerprint() || st.Snapshot.Generation != 1 || st.Snapshot.Source != "built" {
		t.Fatalf("admin snapshot wrong: %+v", st.Snapshot)
	}
	if len(st.Shards) != 2 || st.Draining || st.Reloads != 0 {
		t.Fatalf("admin status wrong: %+v", st)
	}
	found := false
	for _, r := range st.Routes {
		if r == "POST /v1/decide" {
			found = true
		}
	}
	if !found {
		t.Fatalf("admin routes missing decide: %v", st.Routes)
	}
}

// TestAdminReload: the reloader path, the explicit file path, and both
// error paths; served answers follow the swap, bit-identical to the
// library over the new database.
func TestAdminReload(t *testing.T) {
	db1 := testDB(t)
	db2 := altDB(t)
	srv := New(db1, nil, Options{
		Shards: 2,
		Reloader: func() (*simdb.DB, string, error) {
			return db2, "reload", nil
		},
	})
	ts := newTS(t, srv)

	rng := stats.NewRNG(stats.SeedFrom(31, "service/reload-test"))
	var q DecideQuery
	var want1, want2 []arch.Setting
	for try := 0; try < 50; try++ {
		q = queryFor(db1, rng, "rm2", 0.3)
		ok1, w1 := libraryDecide(db1, core.SchemeCoordDVFSCache, core.Model2, []float64{0.3, 0.3, 0.3, 0.3}, q.Apps)
		ok2, w2 := libraryDecide(db2, core.SchemeCoordDVFSCache, core.Model2, []float64{0.3, 0.3, 0.3, 0.3}, q.Apps)
		if ok1 && ok2 && !settingsEqual(w1, w2) {
			want1, want2 = w1, w2
			break
		}
	}
	if want1 == nil {
		t.Fatal("no query distinguishes the two databases")
	}

	var resp DecideResponse
	if code := postJSON(t, ts.URL+"/v1/decide", q, &resp); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}
	if !settingsEqual(settingsOf(db1, *resp.Result), want1) {
		t.Fatal("pre-swap answer does not match library on db1")
	}

	var rl ReloadResponse
	if code := postJSON(t, ts.URL+"/admin/reload", struct{}{}, &rl); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if rl.Hash != db2.Fingerprint() || rl.Generation != 2 || rl.Source != "reload" {
		t.Fatalf("reload response wrong: %+v", rl)
	}
	var m Meta
	getJSON(t, ts.URL+"/v1/meta", &m)
	if m.DBHash != db2.Fingerprint() || m.DBGen != 2 || m.DBSource != "reload" {
		t.Fatalf("meta did not follow the swap: %+v", m)
	}
	if code := postJSON(t, ts.URL+"/v1/decide", q, &resp); code != http.StatusOK {
		t.Fatalf("post-swap decide status %d", code)
	}
	if !settingsEqual(settingsOf(db2, *resp.Result), want2) {
		t.Fatal("post-swap answer does not match library on db2")
	}

	// Path-based reload round-trips through the on-disk format.
	path := filepath.Join(t.TempDir(), "db.bin")
	if err := db1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Path: path}, &rl); code != http.StatusOK {
		t.Fatalf("path reload status %d", code)
	}
	if rl.Hash != db1.Fingerprint() || rl.Generation != 3 || rl.Source != path {
		t.Fatalf("path reload response wrong: %+v", rl)
	}

	// Error paths: unreadable file is the caller's fault; a reloader
	// failure is the server's.
	if code := postJSON(t, ts.URL+"/admin/reload", ReloadRequest{Path: path + ".missing"}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing-file reload status %d, want 400", code)
	}
	bare := New(db1, nil, Options{Shards: 1})
	tsBare := newTS(t, bare)
	if code := postJSON(t, tsBare.URL+"/admin/reload", struct{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("no-reloader reload status %d, want 400", code)
	}
}

// settingsEqual compares two allocation vectors bitwise.
func settingsEqual(a, b []arch.Setting) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReloadUnderConcurrentLoad is the torn-snapshot test: while swaps
// land continuously, every response must be internally consistent with
// exactly one database — per-query answers from different databases may
// alternate across responses, but never mix within one. Run under -race.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	db1 := testDB(t)
	db2 := altDB(t)
	srv, ts := testServer(t, Options{Shards: 2, CacheSize: 64})

	// Two fixed queries whose answers distinguish the databases.
	rng := stats.NewRNG(stats.SeedFrom(41, "service/torn-test"))
	type refs struct {
		q        DecideQuery
		on1, on2 []arch.Setting
	}
	var pair []refs
	for try := 0; try < 200 && len(pair) < 2; try++ {
		q := queryFor(db1, rng, "rm2", 0.3)
		ok1, w1 := libraryDecide(db1, core.SchemeCoordDVFSCache, core.Model2, []float64{0.3, 0.3, 0.3, 0.3}, q.Apps)
		ok2, w2 := libraryDecide(db2, core.SchemeCoordDVFSCache, core.Model2, []float64{0.3, 0.3, 0.3, 0.3}, q.Apps)
		if ok1 && ok2 && !settingsEqual(w1, w2) {
			pair = append(pair, refs{q: q, on1: w1, on2: w2})
		}
	}
	if len(pair) < 2 {
		t.Fatal("not enough distinguishing queries")
	}

	stop := make(chan struct{})
	errCh := make(chan string, 16)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp DecideResponse
				code := postJSON(t, ts.URL+"/v1/decide",
					DecideRequest{Queries: []DecideQuery{pair[0].q, pair[1].q}}, &resp)
				if code != http.StatusOK {
					errCh <- "status " + http.StatusText(code)
					return
				}
				a0 := settingsOf(db1, resp.Results[0])
				a1 := settingsOf(db1, resp.Results[1])
				from1 := settingsEqual(a0, pair[0].on1) && settingsEqual(a1, pair[1].on1)
				from2 := settingsEqual(a0, pair[0].on2) && settingsEqual(a1, pair[1].on2)
				if !from1 && !from2 {
					errCh <- "torn response: answers mix databases (or match neither)"
					return
				}
			}
		}()
	}
	dbs := []*simdb.DB{db2, db1}
	for i := 0; i < 40; i++ {
		srv.Swap(dbs[i%2], "swap-test")
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Fatal(msg)
	}
	if _, gen, _, _ := srv.Snapshot(); gen != 41 {
		t.Fatalf("generation %d after 40 swaps, want 41", gen)
	}
}

// newTS wraps a server the test constructed itself.
func newTS(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// TestGracefulDrain: Shutdown lets a running sweep job and in-flight
// decides finish, refuses new work with 503 + Retry-After, and returns
// within the deadline.
func TestGracefulDrain(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 2})
	names := db.BenchNames()

	var job SweepJobStatus
	code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: [][]string{{names[0], names[1], names[2], names[3]}},
		Schemes:   []string{"dvfs", "rm2"},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	// Decide traffic in flight while the drain starts; every answer must
	// be a clean 200 or a clean 503, never anything else.
	rng := stats.NewRNG(stats.SeedFrom(51, "service/drain-test"))
	q := queryFor(db, rng, "rm2", 0.2)
	stop := make(chan struct{})
	errCh := make(chan int, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code := postJSON(t, ts.URL+"/v1/decide", q, nil)
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					errCh <- code
					return
				}
				if code == http.StatusServiceUnavailable {
					return // drained: clean stop
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for code := range errCh {
		t.Fatalf("decide answered %d during drain", code)
	}

	// The job the drain waited for is complete.
	if code := getJSON(t, ts.URL+"/v1/sweep/"+job.ID, &job); code != http.StatusOK {
		t.Fatalf("job status %d", code)
	}
	if job.State != "done" {
		t.Fatalf("job state %q after drain, want done (%s)", job.State, job.Error)
	}

	// New work is refused with the drain signature...
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"apps":[{"bench":"`+names[0]+`","phase":0},{"bench":"`+names[0]+`","phase":0},{"bench":"`+names[0]+`","phase":0},{"bench":"`+names[0]+`","phase":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain decide: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Apps: []string{names[0]}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain score: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain sweep: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/admin/reload", struct{}{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain reload: status %d", code)
	}

	// ...while observability keeps answering.
	var h HealthStats
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("post-drain healthz: status %d, %q", code, h.Status)
	}
	var st AdminStatus
	if code := getJSON(t, ts.URL+"/admin/status", &st); code != http.StatusOK || !st.Draining {
		t.Fatalf("post-drain admin status: %d draining=%v", code, st.Draining)
	}
}

// TestShutdownHonorsDeadline: with a sweep job still running, an
// already-tight deadline makes Shutdown return the context error instead
// of hanging (the drain continues in the background).
func TestShutdownHonorsDeadline(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1})
	names := db.BenchNames()
	var job SweepJobStatus
	code := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: [][]string{
			{names[0], names[1], names[2], names[3]},
			{names[4], names[5], names[6], names[7]},
		},
		Schemes: []string{"static", "dvfs", "rm1", "rm2", "rm3", "ucp"},
		Slacks:  []float64{0, 0.2},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown returned %v, want deadline exceeded", err)
	}
}

// TestSelfCheckerDetectsCorruption: a corrupted cached decision fails the
// audit, degrades /v1/healthz to 503 and counts in the metrics; a swap
// (which drops the poisoned cache) heals it.
func TestSelfCheckerDetectsCorruption(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1, CacheSize: 16})
	rng := stats.NewRNG(stats.SeedFrom(61, "service/checker-test"))
	q := queryFor(db, rng, "rm2", 0.2)
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}

	// A clean audit passes.
	var rep ops.AuditReport
	if code := postJSON(t, ts.URL+"/admin/check", nil, &rep); code != http.StatusOK || rep.Sampled != 1 || rep.Mismatches != 0 {
		t.Fatalf("clean audit: status %d report %+v", code, rep)
	}

	// Poison the cached entry. The shard is idle (its last write
	// happened-before the decide response we already received) and the
	// next access happens-after the audit request below, so this is
	// race-free despite reaching into shard-owned state without its lock.
	poisoned := 0
	srv.shards[0].lru.each(func(e *lruEntry) bool {
		e.res.decided = !e.res.decided
		poisoned++
		return true
	})
	if poisoned != 1 {
		t.Fatalf("poisoned %d entries, want 1", poisoned)
	}

	if code := postJSON(t, ts.URL+"/admin/check", nil, &rep); code != http.StatusServiceUnavailable || rep.Mismatches != 1 {
		t.Fatalf("poisoned audit: status %d report %+v", code, rep)
	}
	var h HealthStats
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("degraded healthz: status %d %q", code, h.Status)
	}
	if h.Checker == nil || h.Checker.Mismatches != 1 {
		t.Fatalf("healthz checker report missing: %+v", h.Checker)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	copyBody(&sb, resp) //nolint:errcheck
	if !strings.Contains(sb.String(), `qosrmad_audit_total{result="fail"} 1`) {
		t.Fatal("audit failure not counted in metrics")
	}

	// Swap in the same database: the next decide adopts the new
	// generation and drops the poisoned cache; the audit passes again and
	// health recovers.
	srv.Swap(db, "heal")
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("post-heal decide status %d", code)
	}
	if code := postJSON(t, ts.URL+"/admin/check", nil, &rep); code != http.StatusOK || rep.Mismatches != 0 {
		t.Fatalf("healed audit: status %d report %+v", code, rep)
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healed healthz: status %d %q", code, h.Status)
	}
}

// TestPeriodicCheckerRuns: with an interval set, audits happen without
// being asked and surface through /v1/healthz.
func TestPeriodicCheckerRuns(t *testing.T) {
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1, AuditInterval: 2 * time.Millisecond, AuditSamples: 4})
	ts := newTS(t, srv)
	rng := stats.NewRNG(stats.SeedFrom(71, "service/periodic-test"))
	q := queryFor(db, rng, "rm2", 0.1)
	if code := postJSON(t, ts.URL+"/v1/decide", q, nil); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h HealthStats
		getJSON(t, ts.URL+"/v1/healthz", &h)
		if h.Checker != nil && h.Checker.Sampled >= 1 {
			if h.Status != "ok" {
				t.Fatalf("periodic audit degraded a healthy server: %+v", h.Checker)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checker never audited")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

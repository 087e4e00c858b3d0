package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qosrma/internal/service"
)

// wireSchemeNames are the routing key's scheme names by interned ID, the
// reference key_test.go renders keys with. They are spelled out here
// rather than taken from core, so a renamed scheme fails the key tests
// instead of silently moving placement.
var wireSchemeNames = [...]string{"static", "dvfs", "rm1", "rm2", "rm3", "ucp"}

func testGroups(n, replicas int) []Backend {
	groups := make([]Backend, n)
	for i := range groups {
		addrs := make([]string, replicas)
		for j := range addrs {
			addrs[j] = fmt.Sprintf("10.0.%d.%d:7743", i, j)
		}
		groups[i] = Backend{Name: fmt.Sprintf("g%d", i), Addrs: addrs}
	}
	return groups
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("rm2/0/0.2|mcf:%d|lbm:%d|milc:%d|gcc:%d", i%7, i%11, i%13, i))
	}
	return keys
}

// TestRingDeterministicPlacement: placement is a pure function of the
// group names — two independently built rings agree on every key.
func TestRingDeterministicPlacement(t *testing.T) {
	a, err := New(testGroups(4, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testGroups(4, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(2000) {
		if ga, gb := a.Pick(key), b.Pick(key); ga != gb {
			t.Fatalf("key %q: ring A→%d, ring B→%d", key, ga, gb)
		}
	}
}

// TestRingBalance: with the default virtual-node count, 4 groups each own
// a reasonable share of a large key population (no starved or hot group).
func TestRingBalance(t *testing.T) {
	r, err := New(testGroups(4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	keys := testKeys(20000)
	for _, key := range keys {
		counts[r.Pick(key)]++
	}
	for g, c := range counts {
		share := float64(c) / float64(len(keys))
		if share < 0.10 || share > 0.45 {
			t.Fatalf("group %d owns %.1f%% of keys (counts %v)", g, share*100, counts)
		}
	}
}

// TestRingMinimalDisruption is the property the tier exists for: adding a
// group moves only the keys the new group takes over — every other key
// keeps its owner, so the surviving backends' decision LRUs stay warm.
func TestRingMinimalDisruption(t *testing.T) {
	old, err := New(testGroups(3, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New(testGroups(4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(20000)
	moved := 0
	for _, key := range keys {
		was, now := old.Pick(key), grown.Pick(key)
		if was == now {
			continue
		}
		if now != 3 {
			t.Fatalf("key %q moved from group %d to old group %d — consistent hashing must only shed to the new group", key, was, now)
		}
		moved++
	}
	share := float64(moved) / float64(len(keys))
	if share < 0.10 || share > 0.45 {
		t.Fatalf("%.1f%% of keys moved when growing 3→4 groups, want ≈25%%", share*100)
	}
}

// TestRingReplicasDoNotMoveKeys: replica membership is a group-local
// concern — changing it must not move any key.
func TestRingReplicasDoNotMoveKeys(t *testing.T) {
	one, _ := New(testGroups(4, 1), 0)
	three, _ := New(testGroups(4, 3), 0)
	for _, key := range testKeys(2000) {
		if one.Pick(key) != three.Pick(key) {
			t.Fatalf("key %q moved when replica count changed", key)
		}
	}
}

func TestParseGroups(t *testing.T) {
	groups, err := ParseGroups("10.0.0.1:7743 , 10.0.0.2:7743; 10.0.1.1:7743 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("parsed %d groups, want 2", len(groups))
	}
	if groups[0].Name != "g0" || len(groups[0].Addrs) != 2 || groups[0].Addrs[1] != "10.0.0.2:7743" {
		t.Fatalf("group 0 parsed as %+v", groups[0])
	}
	if groups[1].Name != "g1" || len(groups[1].Addrs) != 1 {
		t.Fatalf("group 1 parsed as %+v", groups[1])
	}
	if _, err := ParseGroups(" ; ,"); err == nil {
		t.Fatal("degenerate spec parsed")
	}
}

// fakeBackend answers decide requests with a per-query signature derived
// from the query content (so the merger's index alignment is checkable)
// and records which backend served each routing key.
func fakeBackend(t *testing.T, name string, seen *sync.Map) *httptest.Server {
	t.Helper()
	answer := func(q *service.DecideQuery) service.DecideAnswer {
		a := service.DecideAnswer{Decided: true}
		for _, app := range q.Apps {
			a.Settings = append(a.Settings, service.SettingJSON{
				Size: name, FreqIdx: len(app.Bench), Ways: app.Phase,
			})
		}
		return a
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/decide":
			var req service.DecideRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var resp service.DecideResponse
			if len(req.Queries) == 0 {
				a := answer(&req.DecideQuery)
				resp.Result = &a
				recordOwner(t, seen, &req.DecideQuery, name)
			} else {
				for i := range req.Queries {
					resp.Results = append(resp.Results, answer(&req.Queries[i]))
					recordOwner(t, seen, &req.Queries[i], name)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(&resp) //nolint:errcheck
		case r.URL.Path == "/v1/meta":
			fmt.Fprintf(w, `{"backend":%q}`, name)
		case r.URL.Path == "/v1/healthz":
			fmt.Fprint(w, `{"status":"ok"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// recordOwner asserts every routing key is only ever served by one
// backend group.
func recordOwner(t *testing.T, seen *sync.Map, q *service.DecideQuery, name string) {
	key := string(RoutingKey(nil, q))
	if prev, loaded := seen.LoadOrStore(key, name); loaded && prev != name {
		t.Errorf("key %q served by both %v and %v", key, prev, name)
	}
}

func backendAddr(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// proxyQueries builds a batch with known per-query signatures spanning
// many distinct routing keys.
func proxyQueries(n int) []service.DecideQuery {
	benches := []string{"mcf", "lbm", "milc", "soplex", "gcc"}
	queries := make([]service.DecideQuery, n)
	for i := range queries {
		queries[i] = service.DecideQuery{
			Scheme: "rm2",
			Slack:  0.2,
			Apps: []service.AppQuery{
				{Bench: benches[i%len(benches)], Phase: i % 9},
				{Bench: benches[(i+1)%len(benches)], Phase: i % 7},
			},
		}
	}
	return queries
}

// TestProxySplitsAndMerges: a batch spanning several groups is split by
// the ring, answered by the owning backends, and merged back in request
// order with nothing lost, duplicated or reordered.
func TestProxySplitsAndMerges(t *testing.T) {
	var seen sync.Map
	b0 := fakeBackend(t, "b0", &seen)
	b1 := fakeBackend(t, "b1", &seen)
	ring, err := New([]Backend{
		{Name: "g0", Addrs: []string{backendAddr(b0)}},
		{Name: "g1", Addrs: []string{backendAddr(b1)}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(NewProxyWithOptions(ring, nil, Options{}))
	t.Cleanup(proxy.Close)

	queries := proxyQueries(64)
	body, _ := json.Marshal(service.DecideRequest{Queries: queries})
	resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy status %d", resp.StatusCode)
	}
	var out service.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("merged %d results for %d queries", len(out.Results), len(queries))
	}
	owners := map[string]bool{}
	for i, q := range queries {
		a := out.Results[i]
		if !a.Decided || len(a.Settings) != len(q.Apps) {
			t.Fatalf("query %d: answer %+v", i, a)
		}
		owners[a.Settings[0].Size] = true
		for c, app := range q.Apps {
			if a.Settings[c].FreqIdx != len(app.Bench) || a.Settings[c].Ways != app.Phase {
				t.Fatalf("query %d core %d: answer %+v does not match query %+v (merge misaligned)", i, c, a.Settings[c], app)
			}
		}
	}
	if len(owners) < 2 {
		t.Fatalf("all queries landed on %v — the split path was never exercised", owners)
	}
	requests, splits, failures := proxyStats(proxy)
	if requests == 0 {
		t.Fatal("requests counter never moved")
	}
	if splits == 0 {
		t.Fatal("splits counter never moved")
	}
	if failures != 0 {
		t.Fatalf("%d forward failures against healthy backends", failures)
	}
}

// proxyStats digs the counters back out of the handler under test.
func proxyStats(ts *httptest.Server) (requests, splits, failures uint64) {
	return ts.Config.Handler.(*Proxy).Stats()
}

// TestProxySingleKeyForwardsVerbatim: a single-query request maps to one
// group and is forwarded untouched, preserving the single-result shape.
func TestProxySingleKeyForwardsVerbatim(t *testing.T) {
	var seen sync.Map
	b0 := fakeBackend(t, "b0", &seen)
	b1 := fakeBackend(t, "b1", &seen)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{backendAddr(b0)}},
		{Name: "g1", Addrs: []string{backendAddr(b1)}},
	}, 0)
	proxy := httptest.NewServer(NewProxyWithOptions(ring, nil, Options{}))
	t.Cleanup(proxy.Close)

	q := proxyQueries(1)[0]
	body, _ := json.Marshal(service.DecideRequest{DecideQuery: q})
	resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || len(out.Results) != 0 {
		t.Fatalf("single query answered with %+v — the verbatim forward must preserve shape", out)
	}
	if out.Result.Settings[0].Ways != q.Apps[0].Phase {
		t.Fatalf("answer %+v does not match query", out.Result)
	}
}

// TestProxyFailover: a dead replica is skipped; the group's surviving
// replica answers.
func TestProxyFailover(t *testing.T) {
	var seen sync.Map
	live := fakeBackend(t, "live", &seen)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{"127.0.0.1:1", backendAddr(live)}},
	}, 0)
	proxy := httptest.NewServer(NewProxyWithOptions(ring, nil, Options{}))
	t.Cleanup(proxy.Close)

	for i := 0; i < 4; i++ {
		q := proxyQueries(4)[i]
		body, _ := json.Marshal(service.DecideRequest{DecideQuery: q})
		resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d despite a live replica", i, resp.StatusCode)
		}
	}
}

// TestProxyForwardsOtherEndpoints: non-decide requests reach a backend
// whole (the proxy is a drop-in front for the entire API surface).
func TestProxyForwardsOtherEndpoints(t *testing.T) {
	var seen sync.Map
	b0 := fakeBackend(t, "b0", &seen)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{backendAddr(b0)}}}, 0)
	proxy := httptest.NewServer(NewProxyWithOptions(ring, nil, Options{}))
	t.Cleanup(proxy.Close)

	resp, err := http.Get(proxy.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Backend != "b0" {
		t.Fatalf("meta answered by %q", m.Backend)
	}
}

package service

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzServer memoizes one server for the whole fuzz run; the handlers are
// safe for the concurrent calls the fuzz engine makes.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

func fuzzServer(t testing.TB) *Server {
	fuzzSrvOnce.Do(func() {
		fuzzSrv = New(testDB(t), nil, Options{Shards: 2, CacheSize: 64})
	})
	return fuzzSrv
}

// decideSeeds are the FuzzDecideRequest seeds, shared with
// FuzzDecideJSONMatchesStdlib.
var decideSeeds = []string{
	`{"scheme":"rm2","slack":0.2,"apps":[{"bench":"mcf","phase":0},{"bench":"astar","phase":1},{"bench":"bzip2","phase":0},{"bench":"gcc","phase":2}]}`,
	`{"queries":[{"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}]}`,
	``,
	`{`,
	`[]`,
	`{"apps": 42}`,
	`{"apps":[{"bench":"mcf","phase":-1}]}`,
	`{"scheme":"rm9","apps":[]}`,
	`{"model":99,"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`,
	`{"slacks":[0.1,0.2],"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`,
	`{"apps":[{"bench":"\u0000","phase":9999999999},{"bench":"mcf"},{"bench":"mcf"},{"bench":"mcf"}]}`,
	strings.Repeat(`{"queries":[`, 50),
}

// FuzzDecideRequest pins the request-decoding hardening invariant: no
// body, however malformed, may crash the server or surface as a 5xx —
// malformed JSON, wrong arities, unknown benchmarks and out-of-range
// phases all answer 4xx, and well-formed queries answer 200. The seed
// corpus (testdata/fuzz/FuzzDecideRequest) covers both sides.
func FuzzDecideRequest(f *testing.F) {
	for _, body := range decideSeeds {
		f.Add(body)
	}

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("body %q answered unexpected status %d", body, rec.Code)
		}
	})
}

// FuzzScoreRequest: the same property for /v1/score (including the 409
// full-fleet placement answer).
func FuzzScoreRequest(f *testing.F) {
	f.Add(`{"apps":["mcf","astar"]}`)
	f.Add(`{"machines":[["mcf"],["astar","bzip2"]]}`)
	f.Add(`{"candidate":"mcf","machines":[["astar"]]}`)
	f.Add(`{"candidate":"nope","machines":[[]]}`)
	f.Add(`{"apps":[],"machines":[]}`)
	f.Add(`{"apps": {"x": 1}}`)
	f.Add(`null`)

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/score", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
	})
}

// FuzzSweepRequest: sweep submissions must validate before spawning a
// job; malformed grids answer 4xx and never leave a running job behind.
func FuzzSweepRequest(f *testing.F) {
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[["mcf"]],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["bogus"]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"models":[9]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"slack_vectors":[[0.1,0.2]]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"slacks":[-1]}`)
	f.Add(`{"workloads": "x"}`)

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
	})
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
)

// The reference /v1/decide: encoding/json decode, per-query resolution
// with per-query allocations, and encoding/json encode — the handler the
// single decode → resolve → shard → encode path replaced, kept as the
// oracle the served bytes are compared against.

// resolveQueryRef validates one decoded query against the snapshot and
// hashes it.
func resolveQueryRef(sn *snapshot, q *DecideQuery) (*decideQuery, error) {
	db := sn.db
	n := db.Sys.NumCores
	if len(q.Apps) != n {
		return nil, fmt.Errorf("co-phase vector needs %d apps (one per core), got %d", n, len(q.Apps))
	}
	scheme, err := core.ParseScheme(q.Scheme)
	if err != nil {
		return nil, err
	}
	model, err := parseModel(q.Model, scheme)
	if err != nil {
		return nil, err
	}
	var slack []float64
	switch {
	case len(q.Slacks) > 0:
		if len(q.Slacks) != n {
			return nil, fmt.Errorf("slacks needs %d entries, got %d", n, len(q.Slacks))
		}
		slack = q.Slacks
	case q.Slack != 0:
		slack = make([]float64, n)
		for i := range slack {
			slack[i] = q.Slack
		}
	}
	for i, v := range slack {
		if v < 0 {
			return nil, fmt.Errorf("slack[%d] = %g is negative", i, v)
		}
	}
	rq := &decideQuery{
		slack:  slack,
		ids:    make([]simdb.BenchID, n),
		phases: make([]int, n),
	}
	for i, app := range q.Apps {
		id, ok := db.BenchIDOf(app.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", app.Bench)
		}
		np := db.Benches[id].Analysis.NumPhases
		if app.Phase < 0 || app.Phase >= np {
			return nil, fmt.Errorf("%s has phases 0..%d, got %d", app.Bench, np-1, app.Phase)
		}
		rq.ids[i] = id
		rq.phases[i] = app.Phase
	}
	rq.cfg = managerKey{scheme: scheme, model: model, slackKey: slackKeyOf(slack)}
	rq.h = queryHash(configSeed(rq.cfg), rq.ids, rq.phases)
	return rq, nil
}

// settingsJSONRef renders per-core settings as SettingJSON values.
func settingsJSONRef(sn *snapshot, settings []arch.Setting) []SettingJSON {
	out := make([]SettingJSON, len(settings))
	for i, st := range settings {
		out[i] = SettingJSON{
			Size:    st.Size.String(),
			FreqIdx: st.FreqIdx,
			FreqGHz: sn.db.Sys.DVFS[st.FreqIdx].FreqGHz,
			Ways:    st.Ways,
		}
	}
	return out
}

// responseRef builds the DecideResponse json.Encoder renders for results.
func responseRef(sn *snapshot, results []decideResult, single bool) *DecideResponse {
	answers := make([]DecideAnswer, len(results))
	for i, res := range results {
		answers[i] = DecideAnswer{Decided: res.decided, Settings: settingsJSONRef(sn, res.settings)}
	}
	var resp DecideResponse
	if single {
		resp.Result = &answers[0]
	} else {
		resp.Results = answers
	}
	return &resp
}

// referenceDecide is the reference handler.
func (s *Server) referenceDecide(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	var req DecideRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	single := len(req.Queries) == 0
	wq := req.Queries
	if single {
		wq = []DecideQuery{req.DecideQuery}
	}
	if len(wq) > maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(wq), maxBatch))
		return
	}
	queries := make([]*decideQuery, len(wq))
	for i := range wq {
		q, err := resolveQueryRef(sn, &wq[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}
	results := make([]decideResult, len(queries))
	if err := s.decideInto(sn, &fanout{queries: queries, results: results}); err != nil {
		writeUnavailable(w, err)
		return
	}
	writeJSON(w, http.StatusOK, responseRef(sn, results, single))
}

// decideCorpus returns the FuzzDecideRequest seed corpus files.
func decideCorpus(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecideRequest", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzDecideRequest corpus: %v (%d files)", err, len(files))
	}
	var out []string
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		header, entry, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		inner, ok := strings.CutPrefix(entry, "string(")
		if !ok || header != "go test fuzz v1" || !strings.HasSuffix(inner, ")") {
			t.Fatalf("%s: not a one-string corpus entry", name)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(inner, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, body)
	}
	return out
}

// apps4 renders a valid four-core co-phase vector.
const apps4 = `[{"bench":"mcf","phase":0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]`

// decideJSONSeeds are bodies on both sides of the scanner's subset.
func decideJSONSeeds() []string {
	batch := func(n int) string {
		q := `{"scheme":"rm2","slack":0.2,"apps":` + apps4 + `}`
		return `{"apps":null,"queries":[` + strings.TrimSuffix(strings.Repeat(q+",", n), ",") + `]}`
	}
	return []string{
		`{"scheme":"rm2","slack":0.2,"apps":` + apps4 + `}`,
		` {"model":3,"scheme":"rm3","slacks":[0,0.1,0.2,3e-1],"apps":` + apps4 + `}`,
		`{"Bench":"mcf","apps":` + apps4 + `}`,
		`{"APPS":` + apps4 + `}`,
		`{"apps":[{"Bench":"mcf","phase":0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"m\u0063f","phase":0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"scheme":null,"model":null,"slack":null,"slacks":null,"queries":null,"apps":` + apps4 + `}`,
		`{"apps":[{"bench":null,"phase":null},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[null,{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"slacks":[null,0,0,0],"apps":` + apps4 + `}`,
		`null`,
		`{"scheme":"rm2","scheme":"rm3","apps":` + apps4 + `}`,
		`{"apps":` + apps4 + `,"apps":[{"bench":"mcf"}]}`,
		`{"apps":[{"bench":"mcf","phase":3,"phase":0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"mcf","phase":1.0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"mcf","phase":1e0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"mcf","phase":-0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"model":1.0,"apps":` + apps4 + `}`,
		`{"slack":2e-1,"apps":` + apps4 + `}`,
		`{"slack":-0.5,"apps":` + apps4 + `}`,
		`{"slack":1e400,"apps":` + apps4 + `}`,
		`{"scheme":"RM2","apps":` + apps4 + `}`,
		`{"scheme":"nope","apps":` + apps4 + `}`,
		`{"apps":[{"bench":"nope","phase":0},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"mcf","phase":99999},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"apps":[{"bench":"mcf","phase":123456789012345678901},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{"scheme":"rm2","apps":` + apps4 + `} trailing garbage {`,
		`{"scheme":"rm2","apps":` + apps4 + `}{"scheme":"rm3"}`,
		`{"scheme":"rm2","apps":` + apps4 + `,}`,
		`{"queries":[],"scheme":"dvfs","apps":` + apps4 + `}`,
		`{"queries":[{"apps":` + apps4 + `},{"scheme":"ucp","slack":0.1,"apps":` + apps4 + `}],"apps":[]}`,
		`{"queries":[{"apps":` + apps4 + `},{"apps":[]}]}`,
		`{"queries":[{"queries":[],"apps":` + apps4 + `}]}`,
		`{"queries":[{"apps":` + apps4 + `},]}`,
		`{"apps":[{"bench":"mcf","phase":0}` + "\t\r\n" + `,{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		"{\"apps\":[{\"bench\":\"mc\xfff\",\"phase\":0},{\"bench\":\"astar\",\"phase\":1},{\"bench\":\"bzip2\",\"phase\":0},{\"bench\":\"gcc\",\"phase\":2}]}",
		`{"apps":[{"bench":"mcf","phase":01},{"bench":"omnetpp","phase":1},{"bench":"soplex","phase":0},{"bench":"lbm","phase":0}]}`,
		`{}`,
		`   `,
		batch(64),
		batch(1025),
	}
}

// FuzzDecideJSONMatchesStdlib is the differential wall of the JSON decide
// path: for every body, the served status, content type and response
// bytes equal the reference handler's — encoding/json decode, per-query
// resolution, encoding/json encode.
func FuzzDecideJSONMatchesStdlib(f *testing.F) {
	for _, body := range decideSeeds {
		f.Add(body)
	}
	for _, body := range decideCorpus(f) {
		f.Add(body)
	}
	for _, body := range decideJSONSeeds() {
		f.Add(body)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		got := httptest.NewRecorder()
		srv.ServeHTTP(got, httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body)))
		want := httptest.NewRecorder()
		srv.referenceDecide(want, httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body)))
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("body %q:\nserved    %d %q\nreference %d %q",
				body, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	})
}

// TestDecideJSONEncoderMatchesStdlib: every (size, freq_idx, ways) of the
// lattice, decided or not, in single answers and in batches, renders to
// json.Encoder's bytes.
func TestDecideJSONEncoderMatchesStdlib(t *testing.T) {
	srv := New(testDB(t), nil, Options{Shards: 1})
	t.Cleanup(srv.Close)
	sn := srv.snap.Load()
	n := sn.db.Sys.NumCores
	lat := sn.db.Sys.Lattice()
	var results []decideResult
	for i := 0; i < lat.Len(); i++ {
		settings := make([]arch.Setting, n)
		for c := range settings {
			settings[c] = lat.Setting((i + c) % lat.Len())
		}
		for _, decided := range []bool{true, false} {
			results = append(results, decideResult{decided: decided, settings: settings})
		}
	}
	check := func(results []decideResult, single bool) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(responseRef(sn, results, single)); err != nil {
			t.Fatal(err)
		}
		if got := sn.appendDecideJSON(nil, results, single); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("single=%v: encoded\n%s\nwant\n%s", single, got, want.Bytes())
		}
	}
	for i := range results {
		check(results[i:i+1], true)
		check(results[i:i+1], false)
	}
	check(results, false)
}

// TestDecideJSONSteadyStateAllocs pins the //qosrma:noalloc JSON path: on
// warm pooled scratch, decoding (scan and the members it runs through:
// queryMembers, scanQueries, scanSlacks, scanApps), resolving
// (resolveJSON, resolveOne and the resolver's prepare, config and set)
// and encoding (appendDecideJSON) a 64-query batch that repeats one
// configuration allocates nothing, with uniform and with per-core slack.
func TestDecideJSONSteadyStateAllocs(t *testing.T) {
	srv := New(testDB(t), nil, Options{Shards: 2})
	t.Cleanup(srv.Close)
	sn := srv.snap.Load()
	for _, slacks := range [][]float64{nil, {0.1, 0, 0.2, 0.3}} {
		rng := stats.NewRNG(stats.SeedFrom(5, "service/json-allocs"))
		var req DecideRequest
		for i := 0; i < 64; i++ {
			q := queryFor(sn.db, rng, "rm2", 0.2)
			q.Slacks = slacks
			req.Queries = append(req.Queries, q)
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var sc jsonScratch
		run := func() {
			if !sc.scan(body) {
				t.Fatal("scanner handed a json.Marshal body on")
			}
			if err := srv.resolveJSON(sn, &sc); err != nil {
				t.Fatal(err)
			}
			sc.out = sn.appendDecideJSON(sc.out[:0], sc.fan.results, false)
		}
		run()
		if err := srv.decideInto(sn, &sc.fan); err != nil {
			t.Fatal(err)
		}
		run()
		want := append([]byte(nil), sc.out...)
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Fatalf("slacks %v: decode + resolve + encode allocated %.0f times per 64-query batch, want 0", slacks, got)
		}
		if !bytes.Equal(sc.out, want) {
			t.Fatalf("slacks %v: steady-state output drifted", slacks)
		}
		if slacks != nil {
			pinJSONHelpers(t, sn, &sc, body)
		}
	}
}

// pinJSONHelpers calls each noalloc helper of the batch path directly on
// the warm scratch sc, which has just resolved body (a batch with
// per-core slacks).
func pinJSONHelpers(t *testing.T, sn *snapshot, sc *jsonScratch, body []byte) {
	at := func(key string) jsonScan {
		return jsonScan{b: body, i: bytes.Index(body, []byte(key)) + len(key)}
	}
	q0 := sc.queries[0]
	n := sn.db.Sys.NumCores
	rs := &sc.resolver
	for _, h := range []struct {
		name string
		fn   func() bool
	}{
		{"queryMembers", func() bool { sc.reset(); p := at(`{`); return sc.queryMembers(&p, &sc.top, true) }},
		{"scanQueries", func() bool { sc.reset(); p := at(`"queries":`); return sc.scanQueries(&p) }},
		{"scanSlacks", func() bool { sc.floats = sc.floats[:0]; p := at(`"slacks":`); _, ok := sc.scanSlacks(&p); return ok }},
		{"scanApps", func() bool { sc.apps = sc.apps[:0]; p := at(`"apps":[`); p.i--; _, ok := sc.scanApps(&p); return ok }},
		{"resolveOne", func() bool { return sc.resolveOne(sn.db, 0, &q0) == nil }},
		{"prepare", func() bool { rs.prepare(64, 64*n, 64*n); return true }},
		{"config", func() bool {
			cfg := rs.cfg
			rs.config(cfg.scheme, cfg.model, sc.floats[q0.slacks.lo:q0.slacks.hi])
			return rs.cfg == cfg
		}},
		{"set", func() bool { rs.set(0, rs.slack[:n], rs.ids[:n], rs.phases[:n]); return true }},
	} {
		if !h.fn() {
			t.Fatalf("%s failed on warm scratch", h.name)
		}
		if got := testing.AllocsPerRun(100, func() { h.fn() }); got != 0 {
			t.Errorf("%s allocated %.0f times per call on warm scratch, want 0", h.name, got)
		}
	}
}

package qosrma

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"qosrma/internal/sched"
)

// TestServeFacade drives the public serving surface end to end: the
// handler built by System.NewServer answers decisions deterministically
// (identical bytes for identical queries, cached or not), scores
// collocations identically to the library scorer, and reports its
// counters through /v1/healthz.
func TestServeFacade(t *testing.T) {
	s := testSystem(t)
	srv := s.NewServer(ServeSpec{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	decide := `{"scheme":"rm2","slack":0.2,"apps":[{"bench":"mcf","phase":0},{"bench":"soplex","phase":0},{"bench":"hmmer","phase":0},{"bench":"namd","phase":0}]}`
	code1, body1 := post("/v1/decide", decide)
	code2, body2 := post("/v1/decide", decide) // second hit is served from the LRU
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("decide statuses %d, %d", code1, code2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached decision differs from computed:\n%s\nvs\n%s", body1, body2)
	}
	var ans struct {
		Result struct {
			Decided  bool `json:"decided"`
			Settings []struct {
				Ways int `json:"ways"`
			} `json:"settings"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body1, &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Result.Decided || len(ans.Result.Settings) != 4 {
		t.Fatalf("decision malformed: %s", body1)
	}
	ways := 0
	for _, st := range ans.Result.Settings {
		ways += st.Ways
	}
	if ways > s.Config().LLC.Assoc {
		t.Fatalf("allocated %d ways, LLC has %d", ways, s.Config().LLC.Assoc)
	}

	// Score a full machine: equal to the library scorer bit for bit.
	code, body := post("/v1/score", `{"apps":["mcf","omnetpp","perlbench","xalancbmk"]}`)
	if code != http.StatusOK {
		t.Fatalf("score status %d", code)
	}
	var score struct {
		Score *float64 `json:"score"`
	}
	if err := json.Unmarshal(body, &score); err != nil {
		t.Fatal(err)
	}
	want, err := sched.PredictSavings(s.DB(), []string{"mcf", "omnetpp", "perlbench", "xalancbmk"})
	if err != nil {
		t.Fatal(err)
	}
	if score.Score == nil || *score.Score != want {
		t.Fatalf("served score %v, library %v", score.Score, want)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Decide struct {
			Queries   uint64 `json:"queries"`
			CacheHits uint64 `json:"cache_hits"`
		} `json:"decide"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Decide.Queries != 2 || health.Decide.CacheHits != 1 {
		t.Fatalf("healthz counters wrong: %+v", health)
	}
}

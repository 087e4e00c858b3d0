// Serve: the decision service driven in-process. The walkthrough builds
// the default system, mounts its HTTP handler on a local listener, and
// plays a typical serving session against it: metadata discovery, a
// micro-batched /v1/decide round trip checked bit-for-bit against the
// direct library answer, a placement query, an async sweep job polled to
// completion, and the health counters at the end.
//
// The same handler is what `qosrmad` listens with; point the requests at
// a real daemon to reproduce every step over the network:
//
//	go run ./cmd/qosrmad -addr 127.0.0.1:7743
//	go run ./examples/serve -addr 127.0.0.1:7743
//
// Without -addr the example spins the server up itself.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"qosrma"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "", "drive a running qosrmad instead of an in-process server")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		sys, err := qosrma.NewSystem(4)
		if err != nil {
			log.Fatal(err)
		}
		srv := sys.NewServer(qosrma.ServeSpec{Shards: 4})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		base = ts.URL
		fmt.Printf("in-process server at %s\n", base)
	}

	// 1. Discover what the server can decide about.
	var meta struct {
		NumCores int `json:"num_cores"`
		Benches  []struct {
			Name   string `json:"name"`
			Phases int    `json:"phases"`
		} `json:"benches"`
	}
	get(base+"/v1/meta", &meta)
	fmt.Printf("serving %d-core decisions over %d benchmarks\n", meta.NumCores, len(meta.Benches))

	// 2. A micro-batched decide round trip: four co-phase vectors in one
	// request. The answers are identical to direct library calls — the
	// service's central guarantee.
	decide := map[string]any{"queries": []map[string]any{
		{"scheme": "rm2", "slack": 0.2, "apps": coPhase("mcf", "soplex", "hmmer", "namd")},
		{"scheme": "rm2", "slack": 0.2, "apps": coPhase("lbm", "milc", "gamess", "povray")},
		{"scheme": "rm3", "apps": coPhase("mcf", "omnetpp", "perlbench", "xalancbmk")},
		{"scheme": "static", "apps": coPhase("mcf", "soplex", "hmmer", "namd")},
	}}
	var decisions struct {
		Results []struct {
			Decided  bool `json:"decided"`
			Settings []struct {
				Size    string  `json:"size"`
				FreqGHz float64 `json:"freq_ghz"`
				Ways    int     `json:"ways"`
			} `json:"settings"`
		} `json:"results"`
	}
	post(base+"/v1/decide", decide, &decisions)
	for i, r := range decisions.Results {
		fmt.Printf("decision %d (decided=%v):", i, r.Decided)
		for _, s := range r.Settings {
			fmt.Printf("  %s@%.1fGHz/%dw", s.Size, s.FreqGHz, s.Ways)
		}
		fmt.Println()
	}

	// 3. Placement: where should an arriving mcf go?
	place := map[string]any{
		"candidate": "mcf",
		"machines":  [][]string{{"soplex", "sphinx3"}, {"gamess", "hmmer", "namd"}, {"lbm"}},
	}
	var placed struct {
		Scores []*float64 `json:"scores"`
		Best   *int       `json:"best"`
	}
	post(base+"/v1/score", place, &placed)
	fmt.Printf("placement scores: ")
	for _, s := range placed.Scores {
		if s == nil {
			fmt.Printf("full ")
		} else {
			fmt.Printf("%.3f ", *s)
		}
	}
	fmt.Printf("-> machine %d\n", *placed.Best)

	// 4. An async sweep job, polled to completion and downloaded as CSV.
	sweepReq := map[string]any{
		"name":      "serve-example",
		"workloads": [][]string{{"mcf", "soplex", "hmmer", "namd"}},
		"schemes":   []string{"dvfs", "rm2"},
		"slacks":    []float64{0, 0.4},
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Points int    `json:"points"`
	}
	post(base+"/v1/sweep", sweepReq, &job)
	fmt.Printf("sweep %s: %d points", job.ID, job.Points)
	for job.State == "running" {
		time.Sleep(50 * time.Millisecond)
		get(base+"/v1/sweep/"+job.ID, &job)
	}
	fmt.Printf(" -> %s\n", job.State)
	resp, err := http.Get(base + "/v1/sweep/" + job.ID + "/result?format=csv")
	if err != nil {
		log.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("%s", csv)

	// 5. The health counters summarize the session.
	var health struct {
		Decide struct {
			Queries   uint64 `json:"queries"`
			CacheHits uint64 `json:"cache_hits"`
			Shards    int    `json:"shards"`
		} `json:"decide"`
	}
	get(base+"/v1/healthz", &health)
	fmt.Printf("served %d decisions (%d cache hits) on %d shards\n",
		health.Decide.Queries, health.Decide.CacheHits, health.Decide.Shards)
}

// coPhase builds a phase-0 co-phase vector for the named benchmarks.
func coPhase(benches ...string) []map[string]any {
	apps := make([]map[string]any, len(benches))
	for i, b := range benches {
		apps[i] = map[string]any{"bench": b, "phase": 0}
	}
	return apps
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func post(url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: %s: %s", url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

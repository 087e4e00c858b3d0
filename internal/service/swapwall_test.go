package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

// TestConcurrentDecideAcrossSwap is the concurrency wall of the shard
// locks: four times as many callers as shards, half on JSON and half on
// the binary protocol, send overlapping batches while the database is
// hot-swapped mid-run. Every response must equal the library's answers
// for one database, a request sent after Swap returned must equal the new
// database's, a request resolved before the swap but answered after it
// must equal the old database's, and afterwards every shard must hold
// the new snapshot with no cached answer computed on the old one. Run it
// under -race.
func TestConcurrentDecideAcrossSwap(t *testing.T) {
	const shards, numQueries, batch = 4, 40, 10
	db1, db2 := testDB(t), altDB(t)
	srv, url, addr := wireServer(t, Options{Shards: shards, CacheSize: 8})
	n := db1.Sys.NumCores
	slack := []float64{0.3, 0.3, 0.3, 0.3}

	// libraryAnswer is what a library caller gets, with the baseline
	// allocation standing in when the manager makes no decision.
	libraryAnswer := func(db *simdb.DB, apps []AppQuery) decideResult {
		ok, settings := libraryDecide(db, core.SchemeCoordDVFSCache, core.Model2, slack, apps)
		if !ok {
			settings = baselineSettings(db)
		}
		return decideResult{decided: ok, settings: settings}
	}
	rng := stats.NewRNG(stats.SeedFrom(71, "service/swap-wall"))
	queries := make([]DecideQuery, numQueries)
	apps := make([][]wire.App, numQueries)
	on1, on2 := make([]decideResult, numQueries), make([]decideResult, numQueries)
	distinct := 0
	for i := range queries {
		queries[i] = queryFor(db1, rng, "rm2", 0.3)
		for _, a := range queries[i].Apps {
			id, _ := db1.BenchIDOf(a.Bench)
			apps[i] = append(apps[i], wire.App{Bench: uint16(id), Phase: uint16(a.Phase)})
		}
		on1[i], on2[i] = libraryAnswer(db1, queries[i].Apps), libraryAnswer(db2, queries[i].Apps)
		if !on1[i].equal(on2[i]) {
			distinct++
		}
	}
	if distinct < numQueries/2 {
		t.Fatalf("only %d of %d queries tell the databases apart", distinct, numQueries)
	}

	// One request: the batch starting at lo, over JSON or a wire
	// connection, returned as internal results.
	ask := func(wc net.Conn, wr *wire.Reader, seq uint32, lo int) ([]decideResult, error) {
		out := make([]decideResult, batch)
		if wc == nil {
			req := DecideRequest{}
			for k := 0; k < batch; k++ {
				req.Queries = append(req.Queries, queries[(lo+k)%numQueries])
			}
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			hr, err := http.Post(url+"/v1/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			defer hr.Body.Close()
			var resp DecideResponse
			if hr.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("status %d", hr.StatusCode)
			}
			if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
				return nil, err
			}
			if len(resp.Results) != batch {
				return nil, fmt.Errorf("%d results for %d queries", len(resp.Results), batch)
			}
			for k, ans := range resp.Results {
				out[k] = decideResult{decided: ans.Decided, settings: settingsOf(db1, ans)}
			}
			return out, nil
		}
		req := wire.DecideRequest{Seq: seq, Scheme: uint8(core.SchemeCoordDVFSCache), NCores: uint8(n),
			Flags: wire.FlagSlackUniform, Slack: 0.3}
		for k := 0; k < batch; k++ {
			req.Apps = append(req.Apps, apps[(lo+k)%numQueries]...)
		}
		if _, err := wc.Write(wire.AppendDecideRequest(nil, &req)); err != nil {
			return nil, err
		}
		typ, payload, err := wr.Next()
		if err != nil {
			return nil, err
		}
		if typ != wire.TypeDecideResponse {
			return nil, fmt.Errorf("frame type %#x", typ)
		}
		var resp wire.DecideResponse
		if err := wire.ParseDecideResponse(payload, &resp); err != nil {
			return nil, err
		}
		if resp.Seq != seq || len(resp.Decided) != batch {
			return nil, fmt.Errorf("seq %d with %d answers, want seq %d with %d", resp.Seq, len(resp.Decided), seq, batch)
		}
		for k := range out {
			settings := make([]arch.Setting, n)
			for c := range settings {
				ws := resp.Settings[k*n+c]
				settings[c] = arch.Setting{Size: arch.CoreSize(ws.Size), FreqIdx: int(ws.Freq), Ways: int(ws.Ways)}
			}
			out[k] = decideResult{decided: resp.Decided[k], settings: settings}
		}
		return out, nil
	}

	var (
		swapped  atomic.Bool
		answered atomic.Int64
		wg       sync.WaitGroup
	)
	errCh := make(chan error, 4*shards)
	for g := 0; g < 4*shards; g++ {
		var wc net.Conn
		var wr *wire.Reader
		if g%2 == 1 {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			wc, wr = c, wire.NewReader(c)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each caller keeps going until it has sent four requests
			// after the swap, rotating its window so the same keys reach
			// the shards in different orders and batches.
			after := 0
			for round := 0; after < 4; round++ {
				late := swapped.Load()
				lo := (g*5 + round*7) % numQueries
				got, err := ask(wc, wr, uint32(round), lo)
				if err != nil {
					errCh <- fmt.Errorf("caller %d round %d: %v", g, round, err)
					return
				}
				from1, from2 := true, true
				for k, res := range got {
					qi := (lo + k) % numQueries
					from1 = from1 && res.equal(on1[qi])
					from2 = from2 && res.equal(on2[qi])
				}
				switch {
				case !from1 && !from2:
					errCh <- fmt.Errorf("caller %d round %d: answers match neither database, or mix them", g, round)
					return
				case late && !from2:
					errCh <- fmt.Errorf("caller %d round %d: sent after the swap, answered from the old database", g, round)
					return
				}
				if late {
					after++
				}
				answered.Add(1)
			}
		}(g)
	}
	// Swap once every caller has had time for a few requests; callers
	// keep sending across it.
	for answered.Load() < 4*4*shards && len(errCh) == 0 {
		time.Sleep(time.Millisecond)
	}
	old := srv.snap.Load()
	srv.Swap(db2, "swap-wall")
	swapped.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// A request that resolved just before the swap reaches the shards
	// after it: it is answered from the old database, and its answers
	// must stay out of the caches, which now hold the new one.
	f := &fanout{results: make([]decideResult, numQueries)}
	byHash := map[uint64]int{}
	for i := range queries {
		q, err := resolveQueryRef(old, &queries[i])
		if err != nil {
			t.Fatal(err)
		}
		f.queries = append(f.queries, q)
		byHash[q.h] = i
	}
	if err := srv.decideInto(old, f); err != nil {
		t.Fatal(err)
	}
	for i, res := range f.results {
		if !res.equal(on1[i]) {
			t.Fatalf("query %d resolved before the swap: served %+v, old database says %+v", i, res, on1[i])
		}
	}

	// No answer computed on the old database survives in any cache.
	sn := srv.snap.Load()
	cached := 0
	for _, sh := range srv.shards {
		sh.mu.Lock()
		if sh.sn != sn {
			t.Errorf("shard %d holds generation %d after the swap to %d", sh.idx, sh.sn.gen, sn.gen)
		}
		sh.lru.each(func(e *lruEntry) bool {
			qi, ok := byHash[e.q.h]
			if !ok {
				t.Errorf("shard %d caches a query nobody sent", sh.idx)
			} else if cached++; !e.res.equal(on2[qi]) {
				t.Errorf("shard %d caches query %d's answer from the old database", sh.idx, qi)
			}
			return true
		})
		sh.mu.Unlock()
	}
	if cached == 0 {
		t.Fatal("no shard cached anything after the swap")
	}
}

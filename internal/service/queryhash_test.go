package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

// TestLRUHashCollisionIsMiss: two distinct queries forced onto one hash
// never answer for each other. A get under the other query's hash
// misses, an add replaces the entry, and a shard fed both in one batch
// answers each as a fresh library computation does.
func TestLRUHashCollisionIsMiss(t *testing.T) {
	srv, sh, _ := testShardQuery(t)
	sn := srv.snap.Load()
	// Two queries with different answers, so a wrong answer shows.
	qs := testQueries(t, srv, 13, 8)
	a, b := qs[0], (*decideQuery)(nil)
	for _, q := range qs[1:] {
		if !computeFresh(sn, q).equal(computeFresh(sn, a)) {
			b = q
			break
		}
	}
	if b == nil {
		t.Fatal("every test query has the same answer")
	}
	b.h = a.h
	resA, resB := computeFresh(sn, a), computeFresh(sn, b)

	l := newLRU(8)
	l.add(a.clone(), resA)
	if _, ok := l.get(b); ok {
		t.Fatal("get of a colliding query hit the other query's entry")
	}
	if got, ok := l.get(a); !ok || !got.equal(resA) {
		t.Fatal("the cached query missed or answered wrongly")
	}
	l.add(b.clone(), resB)
	if l.len() != 1 {
		t.Fatalf("add on a collision left %d entries, want the one entry replaced", l.len())
	}
	if _, ok := l.get(a); ok {
		t.Fatal("the replaced query still hits")
	}
	if got, ok := l.get(b); !ok || !got.equal(resB) {
		t.Fatal("the replacing query missed or answered wrongly")
	}

	// Through the shard, in both orders and with a warm cache.
	for lap := 0; lap < 2; lap++ {
		for _, batch := range [][]*decideQuery{{a, b, a}, {b, a, b}} {
			f := &fanout{queries: batch, results: make([]decideResult, len(batch))}
			sh.process(sn, f)
			for i, q := range batch {
				if want := computeFresh(sn, q); !f.results[i].equal(want) {
					t.Fatalf("lap %d query %d: served %+v, library %+v", lap, i, f.results[i], want)
				}
			}
		}
	}
}

// TestQueryHashBalance: distinct seeded co-phase vectors spread over 2,
// 4 and 16 shards with no shard above 1.25× the mean. Each shard count
// gets at least 512 vectors and at least 256 per shard: with 512 over 16
// shards (a mean of 32) a uniform hash's fullest shard passes 40 in
// about 70% of draws, so that bound would fail good hashes; at 256 per
// shard a uniform hash fails it in well under 1% of draws.
func TestQueryHashBalance(t *testing.T) {
	srv, _, _ := testShardQuery(t)
	sn := srv.snap.Load()
	rng := stats.NewRNG(stats.SeedFrom(17, "service/hash-balance"))
	seen := map[string]bool{}
	var hashes []uint64
	for len(hashes) < 256*16 {
		dq := queryFor(sn.db, rng, "rm2", 0.2)
		key := fmt.Sprint(dq.Apps)
		if seen[key] {
			continue
		}
		seen[key] = true
		q, err := resolveQueryRef(sn, &dq)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, q.h)
	}
	for _, n := range []int{2, 4, 16} {
		count := max(512, 256*n)
		load := make([]int, n)
		for _, h := range hashes[:count] {
			load[shardIndex(h, n)]++
		}
		limit := 1.25 * float64(count) / float64(n)
		for i, c := range load {
			if float64(c) > limit {
				t.Errorf("%d shards: shard %d holds %d of %d queries, above 1.25× the mean (%.0f); loads %v",
					n, i, c, count, limit, load)
			}
		}
	}
}

// FuzzQueryHash: a query sent as a JSON body and the same query sent as
// a wire frame resolve to the same configuration, co-phase vector and
// hash — so both codecs share shards and cache entries. Every query of a
// body the JSON path accepts is re-sent as a one-query wire frame,
// carrying its slack in the wire form matching the JSON one.
func FuzzQueryHash(f *testing.F) {
	for _, body := range decideSeeds {
		f.Add(body)
	}
	for _, body := range decideJSONSeeds() {
		f.Add(body)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		sn := srv.snap.Load()
		var js jsonScratch
		if !js.scan([]byte(body)) {
			var req DecideRequest
			if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
				return
			}
			js.load(&req)
		}
		if err := srv.resolveJSON(sn, &js); err != nil {
			return
		}
		for qi, jq := range js.queries {
			q := js.fan.queries[qi]
			req := wire.DecideRequest{
				Scheme: uint8(q.cfg.scheme),
				Model:  uint8(jq.model),
				NCores: uint8(len(q.ids)),
			}
			switch slacks := js.floats[jq.slacks.lo:jq.slacks.hi]; {
			case len(slacks) > 0:
				req.Flags, req.Slacks = wire.FlagSlackPerCore, slacks
			case jq.slack != 0:
				req.Flags, req.Slack = wire.FlagSlackUniform, jq.slack
			}
			for c, id := range q.ids {
				req.Apps = append(req.Apps, wire.App{Bench: uint16(id), Phase: uint16(q.phases[c])})
			}
			var ws wireScratch
			if err := wire.ParseDecideRequest(wire.AppendDecideRequest(nil, &req)[wire.HeaderSize:], &ws.req); err != nil {
				t.Fatalf("query %d: wire frame does not parse: %v", qi, err)
			}
			if count, _, err := srv.resolveWireQueries(sn, &ws); err != nil || count != 1 {
				t.Fatalf("query %d: wire resolve answered %d queries, %v", qi, count, err)
			}
			w := ws.fan.queries[0]
			if !w.same(q) || w.h != q.h {
				t.Fatalf("body %q query %d: wire resolved %+v (hash %016x), JSON %+v (hash %016x)",
					body, qi, *w, w.h, *q, q.h)
			}
		}
	})
}

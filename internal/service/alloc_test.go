package service

import (
	"testing"

	"qosrma/internal/stats"
)

// Pins backing the //qosrma:noalloc annotations on the shard worker: a
// warm shard answers a repeated query without allocating (process, cache
// hit) and recomputes with exactly one allocation (compute — the
// defensive settings copy DecideAll returns).

func testShardQuery(t *testing.T) (*Server, *shard, *decideQuery) {
	t.Helper()
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1})
	t.Cleanup(func() { srv.Close() })
	sn := srv.snap.Load()
	apps := make([]AppQuery, db.Sys.NumCores)
	for i := range apps {
		apps[i] = AppQuery{Bench: db.BenchName(0), Phase: 0}
	}
	q, err := resolveQueryRef(sn, &DecideQuery{Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	return srv, srv.shards[0], q
}

// testQueries resolves count seeded rm2 queries against srv's snapshot.
func testQueries(t *testing.T, srv *Server, seed uint64, count int) []*decideQuery {
	t.Helper()
	sn := srv.snap.Load()
	rng := stats.NewRNG(stats.SeedFrom(seed, "service/test-queries"))
	queries := make([]*decideQuery, count)
	for i := range queries {
		dq := queryFor(sn.db, rng, "rm2", 0.2)
		q, err := resolveQueryRef(sn, &dq)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	return queries
}

func TestShardComputeSteadyStateAllocs(t *testing.T) {
	_, sh, q := testShardQuery(t)
	if res := sh.compute(q); !res.decided {
		t.Fatal("warm-up compute made no decision")
	}
	got := testing.AllocsPerRun(100, func() {
		sh.compute(q)
	})
	if got != 1 {
		t.Fatalf("shard.compute allocated %.0f times per call, want exactly 1 (DecideAll's settings copy)", got)
	}
}

// TestShardProcessHitSteadyStateAllocs: a warm shard answers a batch task
// of cached queries, one of them repeated, without allocating.
func TestShardProcessHitSteadyStateAllocs(t *testing.T) {
	srv, sh, q := testShardQuery(t)
	queries := append(testQueries(t, srv, 3, 15), q)
	f := &fanout{sn: srv.snap.Load(), queries: queries, results: make([]decideResult, len(queries))}
	f.wg.Add(1)
	sh.process(task{batch: f}) // misses: computes and caches
	if !f.results[len(queries)-1].decided {
		t.Fatal("warm-up process made no decision")
	}
	misses := sh.misses.Load()
	got := testing.AllocsPerRun(100, func() {
		f.wg.Add(1)
		sh.process(task{batch: f})
	})
	if got != 0 {
		t.Fatalf("shard.process allocated %.0f times per batch of cached decisions, want 0", got)
	}
	if sh.misses.Load() != misses {
		t.Fatal("a warm batch missed the cache")
	}
}

// TestDecideIntoSteadyStateAllocs: a warm fan-out over a reused fanout
// allocates nothing, whether the batch holds one query or 64 spread over
// every shard.
func TestDecideIntoSteadyStateAllocs(t *testing.T) {
	srv := New(testDB(t), nil, Options{Shards: 4})
	t.Cleanup(srv.Close)
	sn := srv.snap.Load()
	for _, size := range []int{1, 64} {
		f := &fanout{queries: testQueries(t, srv, 9, size), results: make([]decideResult, size)}
		touched := map[int]bool{}
		for _, q := range f.queries {
			touched[shardIndex(q.h, len(srv.shards))] = true
		}
		if size == 64 && len(touched) != len(srv.shards) {
			t.Fatalf("64 queries touched %d of %d shards", len(touched), len(srv.shards))
		}
		if err := srv.decideInto(sn, f); err != nil { // misses: computes and caches
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := srv.decideInto(sn, f); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("warm decideInto allocated %.0f times for a %d-query batch, want 0", got, size)
		}
	}
}

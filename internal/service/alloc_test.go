package service

import (
	"sync"
	"testing"
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

func TestShardProcessHitSteadyStateAllocs(t *testing.T) {
	srv, sh, q := testShardQuery(t)
	sn := srv.snap.Load()
	var res decideResult
	var wg sync.WaitGroup
	wg.Add(1)
	sh.process(task{q: q, sn: sn, res: &res, wg: &wg}) // miss: computes and caches
	if !res.decided {
		t.Fatal("warm-up process made no decision")
	}
	got := testing.AllocsPerRun(100, func() {
		wg.Add(1)
		sh.process(task{q: q, sn: sn, res: &res, wg: &wg})
	})
	if got != 0 {
		t.Fatalf("shard.process allocated %.0f times per cached decision, want 0", got)
	}
}

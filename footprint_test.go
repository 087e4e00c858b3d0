package qosrma

import (
	"runtime"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

// servedDBHash is the fingerprint of the default 4-core database: the
// db_hash qosrmad serves in /v1/meta and /admin/status.
const servedDBHash = "356473ec5cc03748"

// TestDBHashPinned: the served database hash is a function of the model,
// the suite and the configuration only. A change to the compiled table
// layout, or to how a value is derived from it, must leave every hashed
// value, and so the hash, where it was.
func TestDBHashPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("db_hash is pinned on amd64 only: other architectures may fuse x*y+z into one FMA and round differently (ROADMAP item 7, FMA fusion)")
	}
	if got := testSystem(t).DB().Fingerprint(); got != servedDBHash {
		t.Fatalf("default 4-core database hashes to %s, want %s", got, servedDBHash)
	}
}

// TestDBHeapFootprint: the live heap a built 4-core database adds, once
// the process-wide profile and SimPoint caches are warm (its compiled
// tables, phase records and intern index), stays under dbHeapCeiling.
func TestDBHeapFootprint(t *testing.T) {
	testSystem(t) // warms the process-wide caches
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	db, err := simdb.Build(arch.DefaultSystemConfig(4), trace.Suite(), simdb.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db)
	grew := int64(ms.HeapAlloc) - int64(ms0.HeapAlloc)
	t.Logf("a built 4-core database holds %d KiB of live heap", grew>>10)
	if grew > dbHeapCeiling {
		t.Fatalf("a built 4-core database holds %d KiB of live heap, ceiling %d KiB", grew>>10, dbHeapCeiling>>10)
	}
}

// dbHeapCeiling bounds TestDBHeapFootprint. With 32-byte lattice points
// the 4-core database measured 1418-1457 KiB on linux/amd64 (go1.24), of
// which the tables are 1394 KiB (44,625 points), so the ceiling leaves
// about 1.4x headroom; the former 120-byte points measured 5056 KiB and
// fail here.
const dbHeapCeiling = 2 << 20

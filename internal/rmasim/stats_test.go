package rmasim

import (
	"reflect"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/simdb"
)

// TestFillStatsKey pins the key contract the manager's curve table relies
// on: every (benchmark, phase, setting, oracle) input gets its own nonzero
// key, and two fills with the same key differ in nothing but Core.
func TestFillStatsKey(t *testing.T) {
	db := testDB(t)
	seen := map[uint64]string{}
	setIdxs := []int{0, db.BaselineIdx(), db.Lattice.Len() - 1}
	for id := simdb.BenchID(0); int(id) < db.NumBenches(); id++ {
		for phase := range db.Benches[id].Analysis.NumPhases {
			for _, setIdx := range setIdxs {
				for _, oracle := range []bool{false, true} {
					var a, b core.IntervalStats
					FillStats(db, id, phase, setIdx, 0, oracle, &a)
					FillStats(db, id, phase, setIdx, 3, oracle, &b)
					if a.Key == 0 || a.Key != b.Key {
						t.Fatalf("bench %d phase %d set %d oracle %v: keys %#x and %#x", id, phase, setIdx, oracle, a.Key, b.Key)
					}
					b.Core = a.Core
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("bench %d phase %d set %d oracle %v: same key, different statistics", id, phase, setIdx, oracle)
					}
					if a.Setting != db.Lattice.Setting(setIdx) {
						t.Fatalf("setting %v at lattice index %d", a.Setting, setIdx)
					}
					name := db.BenchName(id)
					if prev, dup := seen[a.Key]; dup {
						t.Fatalf("key %#x names both %s and %s/%d/%d/%v", a.Key, prev, name, phase, setIdx, oracle)
					}
					seen[a.Key] = name
				}
			}
		}
	}
}

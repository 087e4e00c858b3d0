package service

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// res builds a distinguishable dummy result.
func res(decided bool) decideResult { return decideResult{decided: decided} }

// keyQuery builds a distinguishable dummy query named key: the name is
// its slack key, and its hash is the name's FNV-1a.
func keyQuery(key string) *decideQuery {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &decideQuery{cfg: managerKey{slackKey: key}, h: h.Sum64()}
}

// put admits+adds the query named key via the public surface, the way
// the shard worker does on a miss.
func put(l *lru, key string, r decideResult) (admitted bool) {
	q := keyQuery(key)
	if l.admit(q.h) {
		l.add(q, r)
		return true
	}
	return false
}

func getKey(l *lru, key string) (decideResult, bool) {
	return l.get(keyQuery(key))
}

// TestLRUGetAddEvict: plain cache mechanics below and at capacity —
// insertion order, recency promotion, LRU eviction of the coldest key.
func TestLRUGetAddEvict(t *testing.T) {
	l := newLRU(3)
	for i := 0; i < 3; i++ {
		if !put(l, fmt.Sprintf("k%d", i), res(i%2 == 0)) {
			t.Fatalf("below capacity, k%d must be admitted", i)
		}
	}
	if l.len() != 3 {
		t.Fatalf("len %d, want 3", l.len())
	}
	// Touch k0 and k2 so k1 is the LRU victim; a re-sighted new key (the
	// doorkeeper saw it once, the second sighting qualifies it) evicts k1.
	if _, ok := getKey(l, "k0"); !ok {
		t.Fatal("k0 missing")
	}
	if _, ok := getKey(l, "k2"); !ok {
		t.Fatal("k2 missing")
	}
	if put(l, "new", res(true)) {
		t.Fatal("first sighting of a new key at capacity must be turned away by the doorkeeper")
	}
	if !put(l, "new", res(true)) {
		t.Fatal("second sighting must be admitted (estimate 2 beats the once-seen victim)")
	}
	if _, ok := getKey(l, "k1"); ok {
		t.Fatal("k1 should have been evicted as the least recently used")
	}
	for _, k := range []string{"k0", "k2", "new"} {
		if _, ok := getKey(l, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
}

// TestLRUAddUpdatesInPlace: adding a key that is already present must
// update the entry (and its recency) instead of growing the cache —
// callers no longer guarantee absence.
func TestLRUAddUpdatesInPlace(t *testing.T) {
	l := newLRU(2)
	put(l, "a", res(false))
	put(l, "b", res(false))
	q2 := keyQuery("a")
	l.add(q2, res(true))
	if l.len() != 2 {
		t.Fatalf("len %d after duplicate add, want 2", l.len())
	}
	got, ok := l.get(q2)
	if !ok || !got.decided {
		t.Fatalf("got %+v, want the updated result", got)
	}
	// The update promoted "a": inserting a qualified new key must now
	// evict "b".
	put(l, "c", res(true)) // doorkeeper sighting
	put(l, "c", res(true)) // admitted
	if _, ok := getKey(l, "b"); ok {
		t.Fatal("b should have been evicted (a was promoted by its update)")
	}
	if _, ok := getKey(l, "a"); !ok {
		t.Fatal("a should have survived its in-place update")
	}
	// The audit path must see the updated query pointer.
	found := false
	l.each(func(e *lruEntry) bool {
		if e.q.cfg.slackKey == "a" {
			found = e.q == q2
		}
		return true
	})
	if !found {
		t.Fatal("entry a does not carry the updated query")
	}
}

// TestLRUEach: iteration visits every entry exactly once and honors an
// early stop.
func TestLRUEach(t *testing.T) {
	l := newLRU(8)
	for i := 0; i < 5; i++ {
		put(l, fmt.Sprintf("k%d", i), res(true))
	}
	seen := map[string]int{}
	l.each(func(e *lruEntry) bool {
		seen[e.q.cfg.slackKey]++
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("visited %d entries, want 5", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("%s visited %d times", k, n)
		}
	}
	visits := 0
	l.each(func(e *lruEntry) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early stop visited %d entries, want 1", visits)
	}
}

// TestLRUDisabled: a non-positive capacity disables caching entirely —
// nothing admits, nothing stores.
func TestLRUDisabled(t *testing.T) {
	l := newLRU(-1)
	if put(l, "a", res(true)) {
		t.Fatal("disabled cache must not admit")
	}
	if l.len() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
	if _, ok := getKey(l, "a"); ok {
		t.Fatal("disabled cache must miss")
	}
}

// TestAdmissionScanResistance is the filter's reason to exist: a
// scan-heavy trace of one-hit wonders must not displace a hot working
// set that fits the cache. Before the filter, every scan key evicted a
// hot entry (plain LRU admits everything); with the doorkeeper in front,
// the hot set survives a scan 100× the cache size.
func TestAdmissionScanResistance(t *testing.T) {
	const capacity = 16
	l := newLRU(capacity)
	hot := make([]string, capacity)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
		put(l, hot[i], res(true))
	}
	// Establish real frequency for the hot set.
	for round := 0; round < 4; round++ {
		for _, k := range hot {
			if _, ok := getKey(l, k); !ok {
				t.Fatalf("%s missing during warm-up", k)
			}
		}
	}
	// The scan: unique one-hit-wonder keys interleaved with the ongoing
	// hot traffic (what a scan-heavy service trace looks like — the hot
	// set keeps being queried while the scan washes past it).
	rejected, hotMisses := 0, 0
	for i := 0; i < 100*capacity; i++ {
		if !put(l, fmt.Sprintf("scan%d", i), res(false)) {
			rejected++
		}
		if _, ok := getKey(l, hot[i%capacity]); !ok {
			hotMisses++
			put(l, hot[i%capacity], res(true))
		}
	}
	if rejected == 0 {
		t.Fatal("a pure scan was fully admitted — the doorkeeper is not filtering")
	}
	// Plain LRU would evict a hot entry on every scan insertion (≈1600
	// hot misses); the admission filter must keep the hot hit rate near
	// perfect.
	if hotMisses > capacity {
		t.Fatalf("%d hot-set misses during the scan (plain LRU would show ~%d, a filter ~0)",
			hotMisses, 100*capacity)
	}
	surviving := 0
	for _, k := range hot {
		if _, ok := getKey(l, k); ok {
			surviving++
		}
	}
	if surviving < capacity*3/4 {
		t.Fatalf("only %d/%d hot entries survived the scan; plain LRU behaviour", surviving, capacity)
	}
}

// TestAdmissionRecurringKeyEnters: the filter must not be a wall — a new
// key that genuinely recurs gathers frequency and is eventually admitted
// over a cold victim.
func TestAdmissionRecurringKeyEnters(t *testing.T) {
	const capacity = 8
	l := newLRU(capacity)
	for i := 0; i < capacity; i++ {
		put(l, fmt.Sprintf("cold%d", i), res(false))
	}
	admitted := false
	for try := 0; try < 8 && !admitted; try++ {
		admitted = put(l, "riser", res(true))
	}
	if !admitted {
		t.Fatal("a recurring key was never admitted")
	}
	if _, ok := getKey(l, "riser"); !ok {
		t.Fatal("admitted key not retrievable")
	}
}

// TestAdmissionReset: the sample-window reset must halve history, not
// wedge the filter — after many windows the cache still admits recurring
// keys.
func TestAdmissionReset(t *testing.T) {
	const capacity = 4
	l := newLRU(capacity)
	for i := 0; i < capacity; i++ {
		put(l, fmt.Sprintf("k%d", i), res(false))
	}
	// Drive enough sightings through record() to cross several reset
	// windows.
	for i := 0; i < 20*l.adm.window; i++ {
		put(l, fmt.Sprintf("scan%d", i%997), res(false))
	}
	if l.adm.samples >= l.adm.window {
		t.Fatalf("samples %d never reset below window %d", l.adm.samples, l.adm.window)
	}
	admitted := false
	for try := 0; try < 8 && !admitted; try++ {
		admitted = put(l, "late-riser", res(true))
	}
	if !admitted {
		t.Fatal("filter wedged shut after resets")
	}
}

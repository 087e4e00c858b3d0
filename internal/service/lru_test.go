package service

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
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

// TestLRUEachRotates: a visit that stops early leaves the next one to
// start at the entry it refused, so successive audit-sized samples cover
// the whole cache, each entry once per rotation.
func TestLRUEachRotates(t *testing.T) {
	const capacity, quota = 10, 4
	l := newLRU(capacity)
	for i := 0; i < capacity; i++ {
		put(l, fmt.Sprintf("k%d", i), res(true))
	}
	seen := map[string]int{}
	for audit := 0; audit < 5; audit++ { // 20 samples: two rotations
		taken := 0
		l.each(func(e *lruEntry) bool {
			if taken == quota {
				return false
			}
			taken++
			seen[e.q.cfg.slackKey]++
			return true
		})
		if taken != quota {
			t.Fatalf("audit %d sampled %d entries, want %d", audit, taken, quota)
		}
	}
	for i := 0; i < capacity; i++ {
		if k := fmt.Sprintf("k%d", i); seen[k] != 2 {
			t.Fatalf("%s sampled %d times over two rotations, want 2", k, seen[k])
		}
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

// lruReference is the container/list + map LRU the flat table replaced,
// kept as the reference its get/admit/add decisions are checked against.
// It shares the admission filter, which both sides drive identically.
type lruReference struct {
	cap   int
	order *list.List               // front = most recent
	byKey map[uint64]*list.Element // query hash -> *lruEntry
	adm   admission
}

func newLRUReference(capacity int) *lruReference {
	l := &lruReference{cap: capacity, order: list.New(), byKey: make(map[uint64]*list.Element)}
	if capacity > 0 {
		l.adm.init(capacity)
	}
	return l
}

func (l *lruReference) get(q *decideQuery) (decideResult, bool) {
	el, ok := l.byKey[q.h]
	if !ok {
		return decideResult{}, false
	}
	e := el.Value.(*lruEntry)
	if !e.q.same(q) {
		return decideResult{}, false
	}
	l.adm.record(q.h)
	l.order.MoveToFront(el)
	return e.res, true
}

func (l *lruReference) admit(h uint64) bool {
	if l.cap <= 0 {
		return false
	}
	seen := l.adm.record(h)
	if l.order.Len() < l.cap {
		return true
	}
	if !seen {
		return false
	}
	victim := l.order.Back().Value.(*lruEntry)
	return l.adm.estimate(h) >= l.adm.estimate(victim.q.h)
}

// add returns the hash it evicted, if any.
func (l *lruReference) add(q *decideQuery, res decideResult) (evicted uint64, ok bool) {
	if l.cap <= 0 {
		return 0, false
	}
	if el, ok := l.byKey[q.h]; ok {
		e := el.Value.(*lruEntry)
		e.q, e.res = q, res
		l.order.MoveToFront(el)
		return 0, false
	}
	if l.order.Len() >= l.cap {
		back := l.order.Back()
		evicted = back.Value.(*lruEntry).q.h
		delete(l.byKey, evicted)
		l.order.Remove(back)
		ok = true
	}
	l.byKey[q.h] = l.order.PushFront(&lruEntry{q: q, res: res})
	return evicted, ok
}

// recency lists the reference's hashes, most recent first.
func (l *lruReference) recency() []uint64 {
	var hs []uint64
	for el := l.order.Front(); el != nil; el = el.Next() {
		hs = append(hs, el.Value.(*lruEntry).q.h)
	}
	return hs
}

// recency lists the flat table's hashes, most recent first, checking the
// backward links and that the index finds every entry.
func (l *lru) recency(t *testing.T) []uint64 {
	t.Helper()
	var hs []uint64
	if l.cap <= 0 {
		return hs
	}
	prev := int32(0)
	for s := l.entries[0].next; s != 0; s = l.entries[s].next {
		e := &l.entries[s]
		if e.prev != prev {
			t.Fatalf("slot %d: prev link %d, want %d", s, e.prev, prev)
		}
		if got, _ := l.find(e.h); got != s {
			t.Fatalf("index finds hash %016x at slot %d, want %d", e.h, got, s)
		}
		hs = append(hs, e.h)
		prev = s
	}
	if prev != l.entries[0].prev || len(hs) != l.len() {
		t.Fatalf("ring ends at %d, sentinel's prev is %d; %d linked of %d", prev, l.entries[0].prev, len(hs), l.len())
	}
	return hs
}

// victim is the flat table's next eviction victim, if it is full.
func (l *lru) victim() (uint64, bool) {
	if l.cap <= 0 || l.len() < l.cap {
		return 0, false
	}
	return l.entries[l.entries[0].prev].h, true
}

// mix64 is the splitmix64 finalizer: distinct well-spread hashes from
// small integers.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestLRUMatchesReference drives the flat table and the list-based
// reference with the same seeded get/admit/add sequences and requires
// every get result, admit decision, length and eviction victim to agree,
// and the whole recency order to agree at checkpoints. The key space is
// twice the capacity, so the table runs full and evicts; a fifth of the
// keys share their hash with another key (a forced collision, which must
// miss and replace), and another fifth share their low 16 bits, so they
// crowd one probe run of the index. Each sequence records well past the
// admission filter's reset window.
func TestLRUMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 64, 4096} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := stats.NewRNG(stats.SeedFrom(uint64(capacity), "service/lru-reference"))
			l, ref := newLRU(capacity), newLRUReference(capacity)
			keys := 2*capacity + 2
			hashOf := func(k int) uint64 {
				switch k % 5 {
				case 1: // collides with key k-1
					return mix64(uint64(k - 1))
				case 2: // shares low bits with every other such key
					return mix64(uint64(k))&^0xffff | 0x1234
				}
				return mix64(uint64(k))
			}
			queries := make([]*decideQuery, keys)
			for k := range queries {
				queries[k] = &decideQuery{cfg: managerKey{slackKey: fmt.Sprint(k)}, h: hashOf(k)}
			}
			// A get that hits and an admit each record one sighting, so
			// the sequence crosses the filter's reset window at least
			// twice.
			steps := max(3*l.adm.window, 3000)
			check := max(1, steps/64)
			var hits, rejects, evictions int
			for step := 0; step < steps; step++ {
				// Skewed draws: half the traffic on an eighth of the keys.
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					k = rng.Intn(max(1, keys/8))
				}
				q := queries[k]
				r := decideResult{decided: rng.Intn(2) == 0, settings: []arch.Setting{{Ways: step}}}
				if rng.Intn(10) == 0 {
					// A bare add: mostly an in-place update of a cached key.
					victim, full := l.victim()
					evicted, did := ref.add(q, r)
					l.add(q, r)
					if did && (!full || victim != evicted) {
						t.Fatalf("step %d key %d: reference evicted %016x, flat victim %016x (full %v)", step, k, evicted, victim, full)
					}
					continue
				}
				got, gotOK := l.get(q)
				want, wantOK := ref.get(q)
				if gotOK != wantOK || !got.equal(want) {
					t.Fatalf("step %d key %d: get (%v, %v), reference (%v, %v)", step, k, got, gotOK, want, wantOK)
				}
				if gotOK {
					hits++
				} else {
					victim, full := l.victim()
					a, b := l.admit(q.h), ref.admit(q.h)
					switch {
					case a != b:
						t.Fatalf("step %d key %d: admit %v, reference %v", step, k, a, b)
					case !a:
						rejects++
					default:
						evicted, did := ref.add(q, r)
						l.add(q, r)
						if did && (!full || victim != evicted) {
							t.Fatalf("step %d key %d: reference evicted %016x, flat victim %016x (full %v)", step, k, evicted, victim, full)
						}
						if did {
							evictions++
						}
					}
				}
				if l.len() != ref.order.Len() {
					t.Fatalf("step %d: len %d, reference %d", step, l.len(), ref.order.Len())
				}
				if capacity <= 64 || step%check == 0 {
					if got, want := l.recency(t), ref.recency(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: recency order diverged:\n flat %x\n  ref %x", step, got, want)
					}
				}
			}
			if hits == 0 || rejects == 0 || evictions == 0 {
				t.Fatalf("%d steps: %d hits, %d admission rejects, %d evictions; want each path crossed", steps, hits, rejects, evictions)
			}
		})
	}
}

// TestLRUProbeLength pins where the index reads a hash: 4096 entries
// whose hashes all belong to shard 0 of 2, and separately of 16, must
// each be found within maxProbes index probes, and within meanProbes on
// average. shardIndex consumes the high bits, so an index taken from
// them would crowd a shard's entries into half (or a sixteenth) of the
// slots and fail this by orders of magnitude; at a load factor of 0.5
// linear probing over well-mixed low bits needs about 1.5 probes on
// average for a hit.
func TestLRUProbeLength(t *testing.T) {
	const entries, maxProbes, meanProbes = 4096, 32, 2.0
	cfg := managerKey{scheme: 2, model: 2}
	seed := configSeed(cfg)
	for _, shards := range []int{2, 16} {
		l := newLRU(entries)
		ids, phases := make([]simdb.BenchID, 4), make([]int, 4)
		for x := 0; l.len() < entries; x++ {
			for c := range ids {
				ids[c], phases[c] = simdb.BenchID(x>>(8*c)&0xff), c
			}
			h := queryHash(seed, ids, phases)
			if shardIndex(h, shards) != 0 {
				continue
			}
			if s, _ := l.find(h); s != 0 {
				t.Fatalf("hash %016x repeated", h)
			}
			l.add(&decideQuery{cfg: cfg, h: h}, decideResult{})
		}
		worst, total := 0, 0
		for i := 1; i < len(l.entries); i++ {
			h := l.entries[i].h
			s, pos := l.find(h)
			if s != int32(i) {
				t.Fatalf("%d shards: entry %d found at slot %d", shards, i, s)
			}
			probes := int((pos-h&l.mask)&l.mask) + 1
			worst = max(worst, probes)
			total += probes
		}
		mean := float64(total) / entries
		t.Logf("%d shards: %d entries in %d index slots, mean %.2f probes, worst %d", shards, entries, len(l.index), mean, worst)
		if worst > maxProbes || mean > meanProbes {
			t.Fatalf("%d shards: worst hit takes %d probes (bound %d), mean %.2f (bound %.1f)", shards, worst, maxProbes, mean, meanProbes)
		}
	}
}

package service

import "container/list"

// lruEntry is one cached decision, keyed by its query's hash q.h. The
// resolved query is retained alongside the result: a hit must match it
// (equal hashes do not imply equal queries), and the self-checker
// recomputes a cached answer from it to compare.
type lruEntry struct {
	q   *decideQuery
	res decideResult
}

// lru is a least-recently-used map of decision results guarded by a
// TinyLFU-style admission filter: once the cache is full, a computed
// decision is only cached if its key has been seen recently (doorkeeper)
// and at least as often as the key it would evict (frequency sketch).
// One-hit-wonder queries from scan-heavy traces therefore pass through
// without displacing the hot working set. It is not safe for concurrent
// use: every instance is owned by exactly one shard worker, which is
// what keeps the decide hot path lock-free — admission decisions
// included.
//
//qosrma:shardowned
type lru struct {
	cap   int
	order *list.List               // front = most recent
	byKey map[uint64]*list.Element // query hash -> *lruEntry
	adm   admission
}

func newLRU(capacity int) *lru {
	l := &lru{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[uint64]*list.Element, max(capacity, 0)),
	}
	if capacity > 0 {
		l.adm.init(capacity)
	}
	return l
}

// get returns the cached decision for q, marks it most recently used and
// records the access in the admission filter's frequency sketch (a hot
// key's estimate must keep growing, or the filter would evict-protect
// stale entries). An entry under q's hash that holds another query is a
// miss. q may alias a transient buffer: the lookup does not retain it.
func (l *lru) get(q *decideQuery) (decideResult, bool) {
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

// admit decides whether a just-computed decision should enter the cache,
// recording the sighting either way. Below capacity everything is
// admitted (warm-up); at capacity a first-sighted key is turned away
// (the doorkeeper absorbs it — if it ever returns, it qualifies), and a
// re-sighted key must match the eviction victim's estimated frequency.
// The caller counts a false return as admission-rejected.
func (l *lru) admit(h uint64) bool {
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

// add inserts or updates the decision for q, which the cache retains,
// evicting the least recently used entry when a new hash arrives at
// capacity. An entry already under q's hash — the same query, or another
// one that collides — is replaced in place and marked most recently
// used, so callers need not guarantee absence.
func (l *lru) add(q *decideQuery, res decideResult) {
	if l.cap <= 0 {
		return
	}
	if el, ok := l.byKey[q.h]; ok {
		e := el.Value.(*lruEntry)
		e.q, e.res = q, res
		l.order.MoveToFront(el)
		return
	}
	if l.order.Len() >= l.cap {
		back := l.order.Back()
		delete(l.byKey, back.Value.(*lruEntry).q.h)
		l.order.Remove(back)
	}
	l.byKey[q.h] = l.order.PushFront(&lruEntry{q: q, res: res})
}

// each visits cached entries in Go's randomized map order — which is what
// gives the self-checker a free uniform-ish sample — stopping when fn
// returns false. Only the owning shard worker may call it.
func (l *lru) each(fn func(*lruEntry) bool) {
	for _, el := range l.byKey {
		if !fn(el.Value.(*lruEntry)) {
			return
		}
	}
}

// len returns the number of cached decisions.
func (l *lru) len() int { return l.order.Len() }

// admission is the doorkeeper + frequency-sketch pair (the TinyLFU
// construction): a bloom-filter doorkeeper absorbs the first sighting of
// every key, and a 4-bit count-min sketch estimates how often re-sighted
// keys recur. Both age by a periodic reset — after window recorded
// sightings the sketch counters are halved and the doorkeeper cleared —
// so the estimates track the recent access distribution, not all of
// history.
//
//qosrma:shardowned
type admission struct {
	door     []uint64 // doorkeeper bloom bits (2 probes)
	sketch   []uint64 // 4-bit counters, 16 per word (4 probes, count-min)
	doorMask uint32   // doorkeeper bit-index mask (power-of-two size)
	ctrMask  uint32   // sketch counter-index mask (power-of-two size)
	samples  int      // sightings since the last reset
	window   int      // reset period in sightings
}

// init sizes the filter for a cache of cap entries: 8 sketch counters
// per cache slot (sparse keeps count-min overestimates low), a
// doorkeeper of 4 bits per counter (it must absorb every distinct key of
// a sample window at a low false-positive rate, or scans would leak
// straight into the frequency comparison), and a sample window of ~8
// sightings per slot so the estimates track the recent distribution.
func (a *admission) init(cap int) {
	n := 1024
	for n < 8*cap {
		n <<= 1
	}
	a.ctrMask = uint32(n - 1)
	a.doorMask = uint32(4*n - 1)
	a.door = make([]uint64, 4*n/64)
	a.sketch = make([]uint64, n/16)
	a.samples = 0
	a.window = 8 * cap
	if a.window < 1024 {
		a.window = 1024
	}
}

// probe derives the i-th probe index from the query hash (double hashing:
// low word stepped by the odd-ified high word).
func (a *admission) probe(h uint64, i, mask uint32) uint32 {
	return (uint32(h) + i*(uint32(h>>32)|1)) & mask
}

// record notes one sighting of h, reporting whether the doorkeeper had
// already seen it. First sighting: set the doorkeeper bits. Re-sighting:
// bump the sketch counters (saturating at 15). Ages the filter when the
// sample window fills.
func (a *admission) record(h uint64) (seen bool) {
	if a.ctrMask == 0 {
		return false
	}
	a.samples++
	if a.samples >= a.window {
		a.reset()
	}
	seen = true
	for i := uint32(0); i < 2; i++ {
		p := a.probe(h, i, a.doorMask)
		w, b := p>>6, uint64(1)<<(p&63)
		if a.door[w]&b == 0 {
			a.door[w] |= b
			seen = false
		}
	}
	if !seen {
		return false
	}
	for i := uint32(0); i < 4; i++ {
		p := a.probe(h, 2+i, a.ctrMask)
		w, sh := p>>4, (p&15)*4
		if (a.sketch[w]>>sh)&0xf < 15 {
			a.sketch[w] += 1 << sh
		}
	}
	return true
}

// estimate returns the frequency estimate for h: the count-min minimum
// over the sketch probes, plus one if the doorkeeper holds a sighting.
func (a *admission) estimate(h uint64) int {
	if a.ctrMask == 0 {
		return 0
	}
	est := 15
	for i := uint32(0); i < 4; i++ {
		p := a.probe(h, 2+i, a.ctrMask)
		if c := int((a.sketch[p>>4] >> ((p & 15) * 4)) & 0xf); c < est {
			est = c
		}
	}
	door := 1
	for i := uint32(0); i < 2; i++ {
		p := a.probe(h, i, a.doorMask)
		if a.door[p>>6]&(uint64(1)<<(p&63)) == 0 {
			door = 0
			break
		}
	}
	return est + door
}

// reset ages the filter: sketch counters halve, the doorkeeper clears,
// and the sample clock rewinds halfway (the classic TinyLFU reset).
func (a *admission) reset() {
	const oddBits = 0x1111111111111111
	for i, w := range a.sketch {
		// Halve every 4-bit lane in parallel: shift, then clear the bit
		// that crossed each lane boundary.
		a.sketch[i] = (w >> 1) &^ (oddBits << 3)
	}
	for i := range a.door {
		a.door[i] = 0
	}
	a.samples /= 2
}

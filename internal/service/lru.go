package service

// lruEntry is one cached decision. The resolved query is retained
// alongside the result: a hit must match it (equal hashes do not imply
// equal queries), and the self-checker recomputes a cached answer from
// it to compare. h copies q.h so index probes stay in the entry array.
type lruEntry struct {
	q          *decideQuery
	res        decideResult
	h          uint64
	prev, next int32 // neighbours in recency order (slots)
}

// lru is a least-recently-used table of decision results guarded by a
// TinyLFU-style admission filter: once the cache is full, a computed
// decision is only cached if its key has been seen recently (doorkeeper)
// and at least as often as the key it would evict (frequency sketch).
// One-hit-wonder queries from scan-heavy traces therefore pass through
// without displacing the hot working set.
//
// The table is flat: entries live in one slice, linked in recency order
// by int32 slots into a ring through the sentinel at slot 0 (its next is
// the most recently used entry, its prev the least), and an
// open-addressed index (linear probing, backward-shift deletion, load
// factor at most 0.5) maps a query hash to its slot. The index starts
// from the hash's low bits, because shardIndex consumes the high ones:
// every hash a shard holds shares them. It is not safe for concurrent
// use: each instance belongs to one shard and is touched only under that
// shard's lock.
//
//qosrma:shardowned
type lru struct {
	cap     int
	entries []lruEntry // sentinel, then at most cap live entries
	index   []int32    // entry slot per position, 0 when empty
	mask    uint64     // len(index) - 1
	cursor  int        // live entry the next each starts from
	adm     admission
}

func newLRU(capacity int) *lru {
	l := &lru{cap: capacity}
	if capacity > 0 {
		size := 2
		for size < 2*capacity {
			size <<= 1
		}
		l.entries = make([]lruEntry, 1, capacity+1)
		l.index = make([]int32, size)
		l.mask = uint64(size - 1)
		l.adm.init(capacity)
	}
	return l
}

// find returns the slot cached under hash h (0 when there is none) and
// the index position where the probe stopped: h's position, or the empty
// one that ends its run.
func (l *lru) find(h uint64) (slot int32, pos uint64) {
	for pos = h & l.mask; ; pos = (pos + 1) & l.mask {
		if slot = l.index[pos]; slot == 0 || l.entries[slot].h == h {
			return slot, pos
		}
	}
}

// get returns the cached decision for q, marks it most recently used and
// records the access in the admission filter's frequency sketch (a hot
// key's estimate must keep growing, or the filter would evict-protect
// stale entries). An entry under q's hash that holds another query is a
// miss. q may alias a transient buffer: the lookup does not retain it.
//
//qosrma:noalloc
func (l *lru) get(q *decideQuery) (decideResult, bool) {
	if l.cap <= 0 {
		return decideResult{}, false
	}
	s, _ := l.find(q.h)
	if s == 0 || !l.entries[s].q.same(q) {
		return decideResult{}, false
	}
	l.adm.record(q.h)
	l.toFront(s)
	return l.entries[s].res, true
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
	if l.len() < l.cap {
		return true
	}
	if !seen {
		return false
	}
	return l.adm.estimate(h) >= l.adm.estimate(l.entries[l.entries[0].prev].h)
}

// add inserts or updates the decision for q, which the cache retains,
// evicting the least recently used entry when a new hash arrives at
// capacity. An entry already under q's hash — the same query, or another
// one that collides — is replaced in place and marked most recently
// used, so callers need not guarantee absence.
//
//qosrma:noalloc
func (l *lru) add(q *decideQuery, res decideResult) {
	if l.cap <= 0 {
		return
	}
	s, pos := l.find(q.h)
	if s == 0 {
		if l.len() < l.cap {
			// A fresh entry links to itself, so toFront's unlink is a no-op.
			s = int32(len(l.entries))
			l.entries = append(l.entries, lruEntry{prev: s, next: s})
		} else {
			s = l.entries[0].prev // the victim's slot, still linked
			l.unindex(s)
			_, pos = l.find(q.h)
		}
		l.index[pos] = s
		l.entries[s].h = q.h
	}
	e := &l.entries[s]
	e.q, e.res = q, res
	l.toFront(s)
}

// unindex removes slot s's hash from the index by backward-shift
// deletion: each later entry of the probe run moves into the hole unless
// the hole lies before its home position, so the index needs no
// tombstones and every run stays as short as if s had never been added.
func (l *lru) unindex(s int32) {
	_, hole := l.find(l.entries[s].h)
	for pos := (hole + 1) & l.mask; l.index[pos] != 0; pos = (pos + 1) & l.mask {
		if home := l.entries[l.index[pos]].h & l.mask; (pos-home)&l.mask >= (pos-hole)&l.mask {
			l.index[hole], hole = l.index[pos], pos
		}
	}
	l.index[hole] = 0
}

// toFront unlinks slot s and relinks it as the most recently used.
func (l *lru) toFront(s int32) {
	e, ring := &l.entries[s], &l.entries[0]
	l.entries[e.prev].next, l.entries[e.next].prev = e.next, e.prev
	e.prev, e.next = 0, ring.next
	l.entries[ring.next].prev = s
	ring.next = s
}

// each visits cached entries in slot order, starting where the previous
// call stopped and wrapping around at most once, until fn returns false;
// the entry fn refused is the next call's first. The rotating start is
// what lets successive self-audits cover the whole cache.
func (l *lru) each(fn func(*lruEntry) bool) {
	n := l.len()
	for k := 0; k < n; k++ {
		i := (l.cursor + k) % n
		if !fn(&l.entries[1+i]) {
			l.cursor = i
			return
		}
	}
}

// len returns the number of cached decisions.
func (l *lru) len() int { return max(len(l.entries)-1, 0) }

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

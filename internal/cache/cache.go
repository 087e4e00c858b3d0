// Package cache implements the shared last-level cache substrate: a
// way-partitioned set-associative cache with LRU replacement, the auxiliary
// tag directory (ATD) of Qureshi & Patt's utility-based cache partitioning
// (MICRO 2006), the MLP-aware ATD extension of Paper II (leading-miss
// detection for different core sizes), and the UCP lookahead partitioning
// algorithm used as a baseline.
package cache

// Line is a cache line identified by a 32-bit line address; the set index
// is derived by modulo over the number of sets.
type line struct {
	tag     uint32
	owner   int8
	valid   bool
	lastUse uint64
}

// LLC is a structural model of a shared, way-partitioned, set-associative
// last-level cache with true LRU replacement within each core's partition.
// Cores have disjoint address spaces (multi-programmed workload), so a core
// can only ever hit on its own lines.
type LLC struct {
	sets  int
	assoc int
	quota []int // ways allocated per core
	data  [][]line
	clock uint64

	// Statistics per core.
	Hits   []uint64
	Misses []uint64
}

// NewLLC builds a cache with the given geometry and an initial equal
// partition across numCores cores.
//
//qosrma:allow(testonly) the reference cache of the ATD tests and rmasim's partitioning test
func NewLLC(sets, assoc, numCores int) *LLC {
	if sets <= 0 || assoc <= 0 || numCores <= 0 {
		panic("cache: invalid LLC geometry")
	}
	c := &LLC{
		sets:   sets,
		assoc:  assoc,
		quota:  make([]int, numCores),
		data:   make([][]line, sets),
		Hits:   make([]uint64, numCores),
		Misses: make([]uint64, numCores),
	}
	for i := range c.data {
		c.data[i] = make([]line, assoc)
	}
	for i := range c.quota {
		c.quota[i] = assoc / numCores
	}
	return c
}

// SetPartition installs a new way allocation. The quotas must be positive
// and sum to at most the associativity. Lines beyond a core's new quota are
// evicted lazily by subsequent replacements, which mirrors how hardware
// repartitioning behaves.
//
//qosrma:allow(testonly) the reference cache of the ATD tests and rmasim's partitioning test
func (c *LLC) SetPartition(quota []int) {
	if len(quota) != len(c.quota) {
		panic("cache: partition core-count mismatch")
	}
	total := 0
	for _, q := range quota {
		if q < 1 {
			panic("cache: every core needs at least one way")
		}
		total += q
	}
	if total > c.assoc {
		panic("cache: partition exceeds associativity")
	}
	copy(c.quota, quota)
}

// Access performs one cache access by the given core and reports whether it
// hit. Addresses are line addresses; each core's address space is disjoint.
//
//qosrma:allow(testonly) the reference cache of the ATD tests and rmasim's partitioning test
func (c *LLC) Access(core int, lineAddr uint32) bool {
	c.clock++
	setIdx := int(lineAddr) % c.sets
	set := c.data[setIdx]

	// Hit path.
	for i := range set {
		if set[i].valid && set[i].owner == int8(core) && set[i].tag == lineAddr {
			set[i].lastUse = c.clock
			c.Hits[core]++
			return true
		}
	}
	c.Misses[core]++

	// Miss path: choose a victim way.
	victim := c.victim(set, core)
	set[victim] = line{tag: lineAddr, owner: int8(core), valid: true, lastUse: c.clock}
	return false
}

// victim selects the way to replace for a miss by core in the given set,
// honouring the partition quotas.
func (c *LLC) victim(set []line, core int) int {
	// First, any invalid way.
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	// Count occupancy per owner and find per-owner LRU.
	occ := make([]int, len(c.quota))
	lru := make([]int, len(c.quota))
	for i := range lru {
		lru[i] = -1
	}
	for i := range set {
		o := set[i].owner
		occ[o]++
		if lru[o] == -1 || set[i].lastUse < set[lru[o]].lastUse {
			lru[o] = i
		}
	}
	if occ[core] >= c.quota[core] {
		// Replace within own partition.
		return lru[core]
	}
	// Borrow from the owner most over quota (break ties by older LRU line).
	best, bestOver := -1, 0
	for o := range occ {
		if o == core {
			continue
		}
		over := occ[o] - c.quota[o]
		if over <= 0 || lru[o] < 0 {
			continue
		}
		if over > bestOver ||
			(over == bestOver && best >= 0 && set[lru[o]].lastUse < set[best].lastUse) {
			best, bestOver = lru[o], over
		}
	}
	if best >= 0 {
		return best
	}
	// Everyone is within quota yet the set is full (partition sums below
	// associativity): steal the globally least recently used line not owned
	// by a core at/below its quota... fall back to global LRU.
	g := 0
	for i := range set {
		if set[i].lastUse < set[g].lastUse {
			g = i
		}
	}
	return g
}

// ResetStats clears the hit/miss counters.
//
//qosrma:allow(testonly) the reference cache of the ATD tests and rmasim's partitioning test
func (c *LLC) ResetStats() {
	for i := range c.Hits {
		c.Hits[i] = 0
		c.Misses[i] = 0
	}
}

package cache

// MaskedLLC is the hardware-faithful variant of the partitioned cache: each
// core owns a bitmask of ways (the "LLC partitioning bit-masks" of the
// paper's Figure 3) and replacement victims are chosen only among the
// core's masked ways. Lines left in a way after a re-mask are evicted
// lazily by the new owner's replacements, as real way-partitioning
// hardware behaves.
//
// With disjoint masks the ways assigned to a core form an isolated
// k-way cache, which is the property the quota-based LLC and the ATD
// approximate; the equivalence is verified in the tests. Nothing in
// production partitions by mask, so the model lives with its tests.
type MaskedLLC struct {
	sets  int
	assoc int
	masks []uint64
	data  [][]line
	clock uint64

	Hits   []uint64
	Misses []uint64
}

// NewMaskedLLC builds the cache with an equal contiguous mask per core.
func NewMaskedLLC(sets, assoc, numCores int) *MaskedLLC {
	if sets <= 0 || assoc <= 0 || assoc > 64 || numCores <= 0 {
		panic("cache: invalid masked LLC geometry")
	}
	c := &MaskedLLC{
		sets:   sets,
		assoc:  assoc,
		masks:  make([]uint64, numCores),
		data:   make([][]line, sets),
		Hits:   make([]uint64, numCores),
		Misses: make([]uint64, numCores),
	}
	for i := range c.data {
		c.data[i] = make([]line, assoc)
	}
	per := assoc / numCores
	for i := range c.masks {
		c.masks[i] = ((1 << per) - 1) << (i * per)
	}
	return c
}

// SetMask installs a core's way bitmask. The mask must select at least one
// way within the associativity.
func (c *MaskedLLC) SetMask(core int, mask uint64) {
	valid := uint64(1)<<c.assoc - 1
	if mask&valid == 0 {
		panic("cache: empty way mask")
	}
	c.masks[core] = mask & valid
}

// Mask returns a core's current way bitmask.
func (c *MaskedLLC) Mask(core int) uint64 { return c.masks[core] }

// MaskFromQuotas builds disjoint contiguous masks from a way-count vector.
func MaskFromQuotas(quotas []int) []uint64 {
	masks := make([]uint64, len(quotas))
	shift := 0
	for i, q := range quotas {
		if q < 1 {
			panic("cache: quota below one way")
		}
		masks[i] = ((1 << q) - 1) << shift
		shift += q
	}
	return masks
}

// Access performs one access by the given core and reports a hit.
func (c *MaskedLLC) Access(core int, lineAddr uint32) bool {
	c.clock++
	set := c.data[int(lineAddr)%c.sets]
	for i := range set {
		if set[i].valid && set[i].owner == int8(core) && set[i].tag == lineAddr {
			set[i].lastUse = c.clock
			c.Hits[core]++
			return true
		}
	}
	c.Misses[core]++

	// Victim: invalid way within the mask first, else LRU within the mask.
	mask := c.masks[core]
	victim, victimValid := -1, true
	for i := range set {
		if mask&(1<<i) == 0 {
			continue
		}
		switch {
		case !set[i].valid:
			if victimValid {
				victim, victimValid = i, false
			}
		case victimValid && (victim < 0 || set[i].lastUse < set[victim].lastUse):
			victim = i
		}
	}
	set[victim] = line{tag: lineAddr, owner: int8(core), valid: true, lastUse: c.clock}
	return false
}

// ResetStats clears the hit/miss counters.
func (c *MaskedLLC) ResetStats() {
	for i := range c.Hits {
		c.Hits[i] = 0
		c.Misses[i] = 0
	}
}

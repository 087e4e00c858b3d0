package sweep

import (
	"sync/atomic"

	"qosrma/internal/flight"
	"qosrma/internal/rmasim"
)

// cacheShards keeps lock contention low when many workers look up points
// concurrently; keys are content hashes, so the first key byte is a
// uniform shard selector.
const cacheShards = 16

// Cache memoizes simulation results by RunSpec content hash. It is safe
// for concurrent use and deduplicates in-flight work: concurrent requests
// for the same key run the simulation exactly once (single-flight), which
// is what guarantees a sweep never issues duplicate rmasim.Run calls even
// when overlapping points land in the same batch. Failed points are not
// memoized, so a later identical request retries instead of replaying the
// error forever.
type Cache struct {
	shards [cacheShards]flight.Group[string, *rmasim.Result]
	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Stats reports cumulative lookups: hits count requests served from a
// completed or in-flight entry, misses count requests that had to run the
// simulation.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *Cache) shard(key string) *flight.Group[string, *rmasim.Result] {
	if key == "" {
		return &c.shards[0]
	}
	return &c.shards[int(key[0])%cacheShards]
}

// do returns the memoized result for key, running exec at most once per
// key across all concurrent callers.
func (c *Cache) do(key string, exec func() (*rmasim.Result, error)) (*rmasim.Result, error) {
	res, hit, err := c.shard(key).Do(key, nil, exec)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, err
}

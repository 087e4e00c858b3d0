// Self-audit: the live re-verification of the service's central
// invariant — every cached decision must be bit-identical to a fresh
// library computation. An audit visits each shard in turn: under the
// shard's lock it copies up to its quota of cached entries (the query
// pointer and a copy of the result, so an eviction meanwhile cannot
// change what is checked) and the snapshot they were derived from; after
// unlocking it recomputes each sampled entry on the trusted slow path
// (computeFresh: a brand-new manager, fresh statistics, nothing pooled).
// Samples start where the shard's previous audit stopped, so successive
// audits rotate over the whole cache. A mismatch means shard-local
// pooled state leaked into an answer — exactly the bug class the
// architecture promises away — and degrades /v1/healthz to 503.
package service

import (
	"time"

	"qosrma/internal/ops"
)

// audit spot-checks up to quota of the shard's cached decisions against
// fresh library computations, reporting how many it sampled and how many
// mismatched. The recomputation runs outside the shard's lock.
func (sh *shard) audit(quota int) (sampled, mismatches int) {
	sample := make([]lruEntry, 0, quota)
	sh.mu.Lock()
	sn := sh.sn
	sh.lru.each(func(e *lruEntry) bool {
		if len(sample) == quota {
			return false
		}
		sample = append(sample, *e)
		return true
	})
	sh.mu.Unlock()
	for _, e := range sample {
		if !computeFresh(sn, e.q).equal(e.res) {
			mismatches++
		}
	}
	return len(sample), mismatches
}

// Audit spot-checks up to samples cached decisions spread across the
// shards and reports how many were sampled and how many mismatched their
// fresh recomputation. It is what the periodic self-checker and
// POST /admin/check run. The read lock pairs with Close's write lock the
// same way decide's does, so an audit after Close reports an error.
func (s *Server) Audit(samples int) ops.AuditReport {
	rep := ops.AuditReport{Time: time.Now()}
	if samples <= 0 {
		samples = 16
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		rep.Error = errServerClosed.Error()
		return rep
	}
	n := len(s.shards)
	quota := (samples + n - 1) / n
	for _, sh := range s.shards {
		sampled, mismatches := sh.audit(quota)
		rep.Sampled += sampled
		rep.Mismatches += mismatches
	}
	return rep
}

package route

import (
	"context"
	"errors"
	"sync/atomic"

	"qosrma/internal/ops"
	"qosrma/internal/resilience"
)

// lane is one transport's view of the replica table: the replicas that
// transport reaches, grouped as on the ring, their rotation counters,
// that transport's per-replica circuit breakers and its forward
// counters. The JSON proxy's lane holds every replica, the wire proxy's
// the replicas with a wire address; both share the one health prober.
type lane struct {
	p        *Proxy
	breakers []*resilience.Breaker // indexed like p.replicas; nil = not on this lane
	groups   [][]int               // group index → replicas on this lane
	all      []int                 // every replica on this lane
	rr       []atomic.Uint32       // per-group rotation
	ar       atomic.Uint32         // any-group rotation

	requests  *ops.Counter // decide requests handled
	splits    *ops.Counter // decide requests that spanned >1 group
	exhausted *ops.Counter // forwards that exhausted every attempt
	retried   *ops.Counter // attempts retried after a failure
	failed    *ops.Counter // attempts that failed
}

// anyGroup asks for a replica of any group.
const anyGroup = -1

// errNoReplica marks a forward that found no admitted replica anywhere:
// answered as 503 + Retry-After so well-behaved clients back off instead
// of hammering a fleet that is already down.
var errNoReplica = errors.New("no replica available")

// errAnswered is a failed attempt that still brought the backend's own
// answer (an HTTP 5xx): the caller relays that answer if no later attempt
// succeeds, and the forward does not count as exhausted.
var errAnswered = errors.New("backend answered an error")

// build puts on the lane every replica that reaches accepts, each with a
// fresh breaker.
func (l *lane) build(p *Proxy, reaches func(rep *replica) bool) {
	l.p = p
	l.breakers = make([]*resilience.Breaker, len(p.replicas))
	l.groups = make([][]int, len(p.ring.Backends()))
	l.rr = make([]atomic.Uint32, len(l.groups))
	for ri := range p.replicas {
		if rep := &p.replicas[ri]; reaches(rep) {
			l.breakers[ri] = p.newBreaker()
			l.groups[rep.group] = append(l.groups[rep.group], ri)
			l.all = append(l.all, ri)
		}
	}
}

// pick returns the next replica of group g (g = anyGroup: of any group)
// in rotation that is not skip and that is admitted: prober-healthy and
// let through by its breaker. It returns -1 when there is none. The
// admission it takes must be settled by failover.
func (l *lane) pick(g, skip int) int {
	idxs, ctr := l.all, &l.ar
	if g != anyGroup {
		idxs, ctr = l.groups[g], &l.rr[g]
	}
	start := int(ctr.Add(1))
	for k := range idxs {
		if ri := idxs[(start+k)%len(idxs)]; ri != skip && l.p.replicaHealthy(ri) && l.breakers[ri].Allow() {
			return ri
		}
	}
	return -1
}

// failover is the routing tier's one forward loop, shared by both codecs.
// It calls try up to attempts times, each time on one admitted replica:
// of group g while g has one, else of any group (every backend serves the
// same database), never the replica tried just before. Each admission
// gets exactly one breaker outcome: Success when try returns nil,
// Failure when it returns an error, and Release when ctx is done by then
// (a caller that gave up proves nothing about the replica). Retries back
// off on ctx, also when no replica was admitted (a breaker may half-open
// meanwhile).
//
// failover returns nil on success, and ctx.Err() when ctx ended the
// forward; neither counts as exhausted. Otherwise it counts an exhausted
// forward and returns the last attempt's error (errNoReplica when the
// last pick admitted nothing), except that it returns errAnswered, and
// counts nothing, when the last attempt made failed with errAnswered.
// counted false keeps the forward off the lane's counters.
func (l *lane) failover(ctx context.Context, g, attempts int, counted bool, try func(ri int) error) error {
	err, answered, tried := errNoReplica, false, -1
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if counted {
				l.retried.Inc()
			}
			if err := l.p.opt.Backoff.Sleep(ctx, a-1, l.p.rnd); err != nil {
				return err
			}
		}
		ri := l.pick(g, tried)
		if ri < 0 && g != anyGroup {
			ri = l.pick(anyGroup, tried)
		}
		if ri < 0 {
			err = errNoReplica
			continue
		}
		tried = ri
		switch err = try(ri); {
		case err == nil:
			l.breakers[ri].Success()
			return nil
		case ctx.Err() != nil:
			l.breakers[ri].Release()
			return ctx.Err()
		}
		l.breakers[ri].Failure()
		if counted {
			l.failed.Inc()
		}
		answered = errors.Is(err, errAnswered)
	}
	if answered {
		return errAnswered
	}
	if counted {
		l.exhausted.Inc()
	}
	return err
}

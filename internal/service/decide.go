// Decision path of the service: /v1/decide requests are parsed and
// validated on the handler goroutine against the current snapshot, then
// routed — one task per query — to a shard picked by hashing the query's
// canonical co-phase key. Each shard runs one worker goroutine that
// drains its queue in micro-batches and owns everything the hot path
// touches: the decision LRU, the per-configuration managers with their
// reusable curve buffers, and the per-core IntervalStats scratch. Nothing
// on the compute path locks or allocates beyond the response itself, and
// because every query's curves are rebuilt from its own statistics
// (core.Manager.DecideAll), answers are bit-identical to direct library
// calls regardless of shard count, batch size, cache state or arrival
// order — the service's central invariant, pinned by
// TestDecideMatchesLibrary and TestConcurrentDecideDeterministic, and
// continuously re-verified in production by the self-checker (audit.go).
//
// Hot-swap discipline: a task carries the snapshot its request resolved
// against. The worker adopts a newer snapshot the first time it sees one
// (dropping its LRU and manager pool, which were derived from the old
// database); a task older than the shard's snapshot — a request that
// resolved just before a swap landed — is answered correctly against its
// own snapshot, bypassing the cache, so mixed-generation traffic never
// mixes cached state.
package service

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
)

// AppQuery names one core's occupant in a decide query: a benchmark and a
// phase of its SimPoint trace (the co-phase vector element).
type AppQuery struct {
	Bench string `json:"bench"`
	Phase int    `json:"phase"`
}

// DecideRequest is the wire form of /v1/decide. Either a single query
// (top-level fields) or a batch (Queries) may be supplied.
type DecideRequest struct {
	DecideQuery
	Queries []DecideQuery `json:"queries,omitempty"`
}

// DecideQuery asks for the coordinated per-core settings of one co-phase
// vector under one manager configuration.
type DecideQuery struct {
	// Scheme is the resource-management algorithm: static, dvfs, rm1, rm2,
	// rm3 or ucp (default rm2).
	Scheme string `json:"scheme,omitempty"`
	// Model is the analytical predictor: 1, 2 or 3; 0 picks the scheme
	// default (Model2, or Model3 for rm3).
	Model int `json:"model,omitempty"`
	// Slack is the uniform QoS relaxation; Slacks relaxes per core.
	Slack  float64   `json:"slack,omitempty"`
	Slacks []float64 `json:"slacks,omitempty"`
	// Apps is the co-phase vector, one entry per core.
	Apps []AppQuery `json:"apps"`
}

// SettingJSON is one core's resource allocation on the wire.
type SettingJSON struct {
	Size    string  `json:"size"`
	FreqIdx int     `json:"freq_idx"`
	FreqGHz float64 `json:"freq_ghz"`
	Ways    int     `json:"ways"`
}

// DecideAnswer is the service's answer for one query. Decided reports
// whether the manager produced a new allocation; when false (warm-up or no
// feasible allocation) Settings is the baseline the machine stays at.
type DecideAnswer struct {
	Decided  bool          `json:"decided"`
	Settings []SettingJSON `json:"settings"`
}

// DecideResponse is the wire form of a /v1/decide reply: Result for a
// single query, Results index-aligned with the request batch.
type DecideResponse struct {
	Result  *DecideAnswer  `json:"result,omitempty"`
	Results []DecideAnswer `json:"results,omitempty"`
}

// decideResult is the internal, wire-independent decision: what the
// library path returns and what the LRU caches.
type decideResult struct {
	decided  bool
	settings []arch.Setting // always numCores long
}

// equal reports bitwise equality — what the self-checker demands between
// a cached decision and a fresh library computation.
func (a decideResult) equal(b decideResult) bool {
	if a.decided != b.decided || len(a.settings) != len(b.settings) {
		return false
	}
	for i := range a.settings {
		if a.settings[i] != b.settings[i] {
			return false
		}
	}
	return true
}

// decideQuery is a validated, resolved query: benchmarks interned, the
// manager configuration canonicalized, and the routing/cache key built.
// The key is bytes, not a string, so the wire path can stage it in
// connection-owned scratch and the cache hit path never materializes a
// string (map lookups convert without allocating).
type decideQuery struct {
	cfg    managerKey
	slack  []float64 // nil for zero slack
	ids    []simdb.BenchID
	phases []int
	key    []byte
}

// clone deep-copies the query so it can outlive the buffers it was
// resolved into — what the cache does before retaining a wire-path query
// whose slices alias per-connection scratch. The key is not copied: a
// cached entry owns its key as a string.
func (q *decideQuery) clone() *decideQuery {
	c := &decideQuery{cfg: q.cfg}
	if q.slack != nil {
		c.slack = append([]float64(nil), q.slack...)
	}
	c.ids = append([]simdb.BenchID(nil), q.ids...)
	c.phases = append([]int(nil), q.phases...)
	return c
}

// managerKey identifies one manager configuration in a shard's pool.
type managerKey struct {
	scheme core.Scheme
	model  core.ModelKind
	// slackKey is the canonical rendering of the per-core slack vector
	// ("" when every core has zero slack), keeping the struct comparable.
	slackKey string
}

// task is one unit of work in flight through a shard: a decide query
// (q/res/wg set) or a self-audit request (audit set). Every decide query
// is resolved into request- or connection-owned scratch (a resolver), so
// the worker clones it before the cache may retain it.
type task struct {
	q     *decideQuery
	sn    *snapshot
	res   *decideResult
	wg    *sync.WaitGroup
	audit *auditTask
}

// shard owns a partition of the decision key space.
type shard struct {
	srv *Server
	ch  chan task

	// sn is the snapshot the shard-local state below was derived from;
	// only the worker touches it after construction.
	sn   *snapshot
	lru  *lru
	mgrs map[managerKey]*core.Manager

	// Reusable per-core statistics buffers; pointers alias the buffers and
	// are re-filled before every DecideAll (the manager retains them only
	// until the next call, exactly like the RMA simulator's per-core
	// buffers).
	stats    []core.IntervalStats
	statPtrs []*core.IntervalStats

	// Counters, read by healthz and /metrics concurrently with the worker.
	tasks      atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	admRejects atomic.Uint64
	batches    atomic.Uint64
}

// adopt rebuilds the shard-local derived state for a snapshot: a fresh
// LRU and manager pool (both encode database content) and statistics
// scratch sized to the system.
func (sh *shard) adopt(sn *snapshot) {
	n := sn.db.Sys.NumCores
	sh.sn = sn
	sh.lru = newLRU(sh.srv.opt.CacheSize)
	sh.mgrs = make(map[managerKey]*core.Manager, 8)
	sh.stats = make([]core.IntervalStats, n)
	sh.statPtrs = make([]*core.IntervalStats, n)
}

// schemeNames maps every accepted lowercase scheme name.
var schemeNames = map[string]core.Scheme{
	"static":        core.SchemeStatic,
	"dvfs":          core.SchemeDVFSOnly,
	"dvfs-only":     core.SchemeDVFSOnly,
	"rm1":           core.SchemePartitionOnly,
	"partition":     core.SchemePartitionOnly,
	"":              core.SchemeCoordDVFSCache,
	"rm2":           core.SchemeCoordDVFSCache,
	"coord":         core.SchemeCoordDVFSCache,
	"rm3":           core.SchemeCoordCoreDVFSCache,
	"core":          core.SchemeCoordCoreDVFSCache,
	"ucp":           core.SchemeUCPDVFS,
	"uncoordinated": core.SchemeUCPDVFS,
}

// parseScheme resolves the wire name of a scheme, in any letter case.
func parseScheme(name string) (core.Scheme, error) {
	if scheme, ok := schemeNames[strings.ToLower(name)]; ok {
		return scheme, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want static, dvfs, rm1, rm2, rm3 or ucp)", name)
}

// parseSchemeBytes is parseScheme over a name's bytes: the lowercase
// names clients send resolve without allocating.
func parseSchemeBytes(name []byte) (core.Scheme, error) {
	if scheme, ok := schemeNames[string(name)]; ok {
		return scheme, nil
	}
	return parseScheme(string(name))
}

// parseModel resolves the wire model number, applying the scheme default.
func parseModel(model int, scheme core.Scheme) (core.ModelKind, error) {
	switch model {
	case 0:
		if scheme == core.SchemeCoordCoreDVFSCache {
			return core.Model3, nil
		}
		return core.Model2, nil
	case 1:
		return core.Model1, nil
	case 2:
		return core.Model2, nil
	case 3:
		return core.Model3, nil
	default:
		return 0, fmt.Errorf("unknown model %d (want 1, 2 or 3, or 0 for the scheme default)", model)
	}
}

// resolver is the resolve state one decide request stream reuses: the
// JSON path's pooled per-request scratch and each wire connection's
// scratch embed one. It owns the arenas resolved queries live in (their
// slices alias it, which is why shards clone before caching) and
// memoizes the manager configuration across consecutive queries, so the
// canonical slack key is rendered once per distinct (scheme, model,
// slack) configuration rather than once per query.
//
//qosrma:shardowned
type resolver struct {
	queries []decideQuery  // query arena; each entry keeps its key buffer
	qptrs   []*decideQuery // fan-out view over the arena
	results []decideResult
	ids     []simdb.BenchID
	phases  []int
	slack   []float64

	cfg      managerKey
	cfgSlack []float64
	cfgHasSl bool
	cfgValid bool
}

// prepare sizes the arenas for count queries over apps flattened
// co-phase slots and slack flattened slack entries.
//
//qosrma:noalloc
func (rs *resolver) prepare(count, apps, slack int) {
	rs.queries = grow(rs.queries, count)
	rs.qptrs = grow(rs.qptrs, count)
	rs.results = grow(rs.results, count)
	rs.ids = grow(rs.ids, apps)
	rs.phases = grow(rs.phases, apps)
	rs.slack = grow(rs.slack, slack)
}

// config returns the manager configuration of (scheme, model, slack),
// rendering the slack key only when it differs from the previous call's.
//
//qosrma:noalloc
func (rs *resolver) config(scheme core.Scheme, model core.ModelKind, slack []float64) managerKey {
	if !rs.cfgValid || scheme != rs.cfg.scheme || model != rs.cfg.model ||
		!slackEqual(slack, rs.cfgSlack, rs.cfgHasSl) {
		rs.cfg = managerKey{scheme: scheme, model: model, slackKey: slackKeyOf(slack)}
		rs.cfgSlack = append(rs.cfgSlack[:0], slack...)
		rs.cfgHasSl = slack != nil
		rs.cfgValid = true
	}
	return rs.cfg
}

// set stores resolved query qi and builds its canonical key.
//
//qosrma:noalloc
func (rs *resolver) set(qi int, cfg managerKey, slack []float64, ids []simdb.BenchID, phases []int) {
	q := &rs.queries[qi]
	q.cfg = cfg
	q.slack = slack
	q.ids = ids
	q.phases = phases
	q.key = appendQueryKey(q.key[:0], cfg, ids, phases)
	rs.qptrs[qi] = q
}

// checkSlack rejects negative slack entries (both codecs).
func checkSlack(slack []float64) error {
	for i, v := range slack {
		if v < 0 {
			return fmt.Errorf("slack[%d] = %g is negative", i, v)
		}
	}
	return nil
}

// slackEqual compares a candidate slack vector against the memoized one
// (hasPrev distinguishes the nil configuration from an empty slice).
func slackEqual(slack, prev []float64, hasPrev bool) bool {
	if (slack == nil) != !hasPrev || len(slack) != len(prev) {
		return false
	}
	for i, v := range slack {
		if v != prev[i] {
			return false
		}
	}
	return true
}

// grow returns s resized to n, reusing its capacity. A reallocation keeps
// the old elements, so a query arena's entries keep their key buffers.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

// slackKeyOf renders the canonical slack-vector key ("" for all-zero) —
// one rendering shared by the JSON and wire paths, so both resolve to
// the same manager pool entries and cache keys.
func slackKeyOf(slack []float64) string {
	if slack == nil {
		return ""
	}
	parts := make([]string, len(slack))
	for i, v := range slack {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// appendQueryKey appends the canonical routing/cache key of one resolved
// query. JSON and wire queries with the same semantics produce the same
// bytes: that is what lets the two codecs share shard placement, cached
// decisions and audit coverage.
func appendQueryKey(dst []byte, cfg managerKey, ids []simdb.BenchID, phases []int) []byte {
	dst = strconv.AppendInt(dst, int64(cfg.scheme), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(cfg.model), 10)
	dst = append(dst, '/')
	dst = append(dst, cfg.slackKey...)
	for i, id := range ids {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(phases[i]), 10)
	}
	return dst
}

// shardOf routes a canonical key to its owning shard. The inlined
// keyHash replaces the old hash.Hash32 construction, which allocated on
// every fan-out.
func (s *Server) shardOf(key []byte) *shard {
	return s.shards[uint32(keyHash(key))%uint32(len(s.shards))]
}

// FillOracleStats fills st with the perfect interval statistics of one
// (benchmark, phase) pair executing on coreID at the baseline setting —
// the co-phase decision point the RMA faces, built by the simulator's own
// filler (rmasim.FillStats), keyed like its statistics.
func FillOracleStats(db *simdb.DB, id simdb.BenchID, phase, coreID int, st *core.IntervalStats) {
	rmasim.FillStats(db, id, phase, db.BaselineIdx(), coreID, true, st)
}

// OracleStats is FillOracleStats returning a fresh struct (the reference
// the service's equivalence tests drive the library path with).
func OracleStats(db *simdb.DB, id simdb.BenchID, phase, coreID int) *core.IntervalStats {
	st := new(core.IntervalStats)
	FillOracleStats(db, id, phase, coreID, st)
	return st
}

// newManager builds a library manager for one configuration over a
// snapshot's database.
func newManager(sn *snapshot, q *decideQuery) *core.Manager {
	db := sn.db
	return core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: q.cfg.scheme,
		Model:  q.cfg.model,
		Slack:  append([]float64(nil), q.slack...),
	})
}

// managerLimit bounds the managers one shard keeps. Clients choose the
// slack freely, so the configurations a shard sees are unbounded.
const managerLimit = 64

// manager returns the shard's manager for the configuration, building it
// on first use. Managers are retained: their curve tables, allocation
// memos and per-core buffers are the shard-local reuse that keeps
// repeated decisions allocation-free. A full pool is emptied, as core's
// memo bound does; answers never depend on reuse (the service builds no
// feedback managers), so a rebuilt manager answers as its predecessor.
func (sh *shard) manager(q *decideQuery) *core.Manager {
	m, ok := sh.mgrs[q.cfg]
	if !ok {
		if len(sh.mgrs) == managerLimit {
			clear(sh.mgrs)
		}
		m = newManager(sh.sn, q)
		sh.mgrs[q.cfg] = m
	}
	return m
}

// compute runs the library decision for one query against the shard's
// adopted snapshot, using the shard's reusable scratch.
//
//qosrma:noalloc
func (sh *shard) compute(q *decideQuery) decideResult {
	db := sh.sn.db
	n := db.Sys.NumCores
	for i := 0; i < n; i++ {
		FillOracleStats(db, q.ids[i], q.phases[i], i, &sh.stats[i])
		sh.statPtrs[i] = &sh.stats[i]
	}
	settings, ok := sh.manager(q).DecideAll(sh.statPtrs)
	if !ok {
		settings = baselineSettings(db)
	}
	return decideResult{decided: ok, settings: settings}
}

// computeFresh runs the library decision for one query with nothing
// pooled: a fresh manager and fresh statistics, all derived from the
// given snapshot. This is the slow, trusted path — it answers
// stale-generation tasks after a hot-swap and recomputes the reference
// answers the self-checker compares cached decisions against.
func computeFresh(sn *snapshot, q *decideQuery) decideResult {
	db := sn.db
	n := db.Sys.NumCores
	stats := make([]core.IntervalStats, n)
	ptrs := make([]*core.IntervalStats, n)
	for i := 0; i < n; i++ {
		FillOracleStats(db, q.ids[i], q.phases[i], i, &stats[i])
		ptrs[i] = &stats[i]
	}
	settings, ok := newManager(sn, q).DecideAll(ptrs)
	if !ok {
		settings = baselineSettings(db)
	}
	return decideResult{decided: ok, settings: settings}
}

// baselineSettings is the all-cores-at-baseline allocation vector.
func baselineSettings(db *simdb.DB) []arch.Setting {
	base := db.Sys.BaselineSetting()
	settings := make([]arch.Setting, db.Sys.NumCores)
	for i := range settings {
		settings[i] = base
	}
	return settings
}

// process answers one task: dispatching audits, adopting newer snapshots,
// and serving decide queries from the cache or by computing.
//
//qosrma:noalloc
func (sh *shard) process(t task) {
	if t.audit != nil {
		sh.runAudit(t.audit)
		return
	}
	sh.tasks.Add(1)
	if t.sn != sh.sn {
		if t.sn.gen > sh.sn.gen {
			sh.adopt(t.sn)
		} else {
			// The request resolved against a snapshot that was swapped out
			// while it queued. Its answer must still come from that snapshot
			// (no torn responses), so compute fresh and leave the cache —
			// which now encodes the newer database — untouched.
			*t.res = computeFresh(t.sn, t.q)
			t.wg.Done()
			return
		}
	}
	h := keyHash(t.q.key)
	if res, ok := sh.lru.get(t.q.key, h); ok {
		sh.hits.Add(1)
		*t.res = res
	} else {
		sh.misses.Add(1)
		res := sh.compute(t.q)
		if sh.lru.admit(h) {
			sh.lru.add(t.q.key, h, t.q.clone(), res)
		} else if sh.srv.opt.CacheSize > 0 {
			sh.admRejects.Add(1)
		}
		*t.res = res
	}
	t.wg.Done()
}

// run is the shard worker: it blocks for one task, then drains up to a
// micro-batch from the queue before blocking again, so a loaded shard
// amortizes channel wakeups across many decisions.
func (sh *shard) run() {
	for {
		select {
		case <-sh.srv.quit:
			return
		case t := <-sh.ch:
			sh.batches.Add(1)
			sh.process(t)
			for drained := 1; drained < sh.srv.opt.Batch; drained++ {
				select {
				case t2 := <-sh.ch:
					sh.process(t2)
				default:
					drained = sh.srv.opt.Batch
				}
			}
		}
	}
}

// decideInto answers a batch of resolved queries by fanning them out to
// their shards and awaiting completion: results[i] receives the answer to
// queries[i]. Both codecs call it with resolver-owned storage, which is
// what keeps a steady-state decision free of per-request allocation
// beyond the fan-out's WaitGroup. The read lock pairs with Close's write
// lock: while any fan-out holds it the workers cannot be stopped, so an
// accepted task is always drained and wg.Wait cannot strand the caller;
// after Close, requests fail fast instead of queueing into dead shards.
// Draining is the callers' business: HTTP refuses new work, while a wire
// frame already read is answered (Shutdown waits for the wire loops
// before it closes).
func (s *Server) decideInto(sn *snapshot, queries []*decideQuery, results []decideResult) error {
	start := time.Now()
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return errServerClosed
	}
	var wg sync.WaitGroup
	wg.Add(len(queries))
	for i, q := range queries {
		s.shardOf(q.key).ch <- task{q: q, sn: sn, res: &results[i], wg: &wg}
	}
	wg.Wait()
	s.metrics.decideSeconds.Observe(time.Since(start).Seconds())
	s.metrics.decideBatch.Observe(float64(len(queries)))
	return nil
}

// Decision path of the service: /v1/decide requests are parsed and
// validated on the handler goroutine against the current snapshot, and
// each resolved query carries one 64-bit hash of its manager
// configuration and co-phase vector (queryHash). The hash's high bits
// pick the owning shard. A shard is state guarded by one mutex: the
// decision LRU (keyed by the same hash, and checking the query itself on
// a hit), the per-configuration managers with their reusable curve
// buffers, and the per-core IntervalStats scratch. decideInto answers a
// batch on the request's own goroutine, visiting each shard the batch
// touches in index order: it locks the shard, answers the queries the
// shard owns and unlocks before the next, so it never holds two shard
// locks. Nothing on the compute path allocates beyond the response
// itself, and because every query's curves are rebuilt from its own
// statistics (core.Manager.DecideAll), answers are bit-identical to
// direct library calls regardless of shard count, batch size, cache
// state or arrival order — the service's central invariant, pinned by
// TestDecideMatchesLibrary and TestConcurrentDecideDeterministic, and
// continuously re-verified in production by the self-checker (audit.go).
//
// Hot-swap discipline: a request carries the snapshot it resolved
// against. A shard adopts a newer snapshot the first time a request
// brings one (dropping its LRU and manager pool, which were derived from
// the old database); a request older than the shard's snapshot — one
// that resolved just before a swap landed — is answered correctly
// against its own snapshot, bypassing the cache, so mixed-generation
// traffic never mixes cached state.
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
// manager configuration canonicalized, and its hash h computed
// (queryHash). h picks the shard and keys the LRU; the query itself,
// not h, is what a cache hit must match.
type decideQuery struct {
	cfg    managerKey
	slack  []float64 // nil for zero slack
	ids    []simdb.BenchID
	phases []int
	h      uint64
}

// same reports whether p asks what q asks: the same manager
// configuration over the same co-phase vector. The slack vector needs no
// comparison, as cfg.slackKey renders it exactly.
func (q *decideQuery) same(p *decideQuery) bool {
	if q.cfg != p.cfg || len(q.ids) != len(p.ids) {
		return false
	}
	for i, id := range q.ids {
		if id != p.ids[i] || q.phases[i] != p.phases[i] {
			return false
		}
	}
	return true
}

// clone deep-copies the query so it can outlive the buffers it was
// resolved into — what the cache does before retaining a wire-path query
// whose slices alias per-connection scratch.
func (q *decideQuery) clone() *decideQuery {
	c := &decideQuery{cfg: q.cfg, h: q.h}
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

// fanout is one decide request's queries and their index-aligned
// answers, which every shard the batch touches fills for the queries it
// owns. Each resolver owns one and reuses it for every request of its
// stream, so a decide allocates nothing. The queries alias the
// resolver's arenas, so a shard clones one before its cache may retain
// it.
type fanout struct {
	queries []*decideQuery
	results []decideResult
}

// shard owns a partition of the decision key space.
type shard struct {
	srv *Server
	idx int // position in Server.shards: owns the queries shardIndex maps here

	// mu guards everything down to statPtrs. sn is the snapshot that
	// state was derived from.
	mu   sync.Mutex
	sn   *snapshot
	lru  *lru
	mgrs map[managerKey]*core.Manager

	// Reusable per-core statistics buffers; pointers alias the buffers and
	// are re-filled before every DecideAll (the manager retains them only
	// until the next call, exactly like the RMA simulator's per-core
	// buffers).
	stats    []core.IntervalStats
	statPtrs []*core.IntervalStats

	// Counters, read by healthz and /metrics without the lock.
	tasks      atomic.Uint64 // decide queries answered
	hits       atomic.Uint64
	misses     atomic.Uint64
	admRejects atomic.Uint64
	batches    atomic.Uint64 // visits: one per request per shard it touches
	managers   atomic.Int64  // live entries of mgrs
	mgrResets  atomic.Uint64 // times a full mgrs was emptied
}

// adopt rebuilds the shard-local derived state for a snapshot: a fresh
// LRU and manager pool (both encode database content) and statistics
// scratch sized to the system.
func (sh *shard) adopt(sn *snapshot) {
	n := sn.db.Sys.NumCores
	sh.sn = sn
	sh.lru = newLRU(sh.srv.opt.CacheSize)
	sh.mgrs = make(map[managerKey]*core.Manager, 8)
	sh.managers.Store(0)
	sh.stats = make([]core.IntervalStats, n)
	sh.statPtrs = make([]*core.IntervalStats, n)
}

// parseModel resolves the wire model number, applying the scheme default.
func parseModel(model int, scheme core.Scheme) (core.ModelKind, error) {
	switch model {
	case 0:
		return scheme.DefaultModel(), nil
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
// canonical slack key and the configuration's hash seed are computed
// once per distinct (scheme, model, slack) configuration rather than
// once per query.
//
//qosrma:shardowned
type resolver struct {
	queries []decideQuery // query arena
	fan     fanout        // pointers into the arena, and their answers
	ids     []simdb.BenchID
	phases  []int
	slack   []float64

	cfg      managerKey
	cfgSeed  uint64 // configSeed(cfg)
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
	rs.fan.queries = grow(rs.fan.queries, count)
	rs.fan.results = grow(rs.fan.results, count)
	rs.ids = grow(rs.ids, apps)
	rs.phases = grow(rs.phases, apps)
	rs.slack = grow(rs.slack, slack)
}

// config makes (scheme, model, slack) the configuration later set calls
// store, rendering the slack key and computing the hash seed only when
// it differs from the previous call's.
//
//qosrma:noalloc
func (rs *resolver) config(scheme core.Scheme, model core.ModelKind, slack []float64) {
	if !rs.cfgValid || scheme != rs.cfg.scheme || model != rs.cfg.model ||
		!slackEqual(slack, rs.cfgSlack, rs.cfgHasSl) {
		rs.cfg = managerKey{scheme: scheme, model: model, slackKey: slackKeyOf(slack)}
		rs.cfgSeed = configSeed(rs.cfg)
		rs.cfgSlack = append(rs.cfgSlack[:0], slack...)
		rs.cfgHasSl = slack != nil
		rs.cfgValid = true
	}
}

// set stores resolved query qi under the current configuration and
// hashes it.
//
//qosrma:noalloc
func (rs *resolver) set(qi int, slack []float64, ids []simdb.BenchID, phases []int) {
	q := &rs.queries[qi]
	q.cfg = rs.cfg
	q.slack = slack
	q.ids = ids
	q.phases = phases
	q.h = queryHash(rs.cfgSeed, ids, phases)
	rs.fan.queries[qi] = q
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

// grow returns s resized to n, reusing its capacity and keeping the old
// elements.
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
// the same manager pool entries and query hashes.
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

// Query hashing. A query's hash is a function of its manager
// configuration and co-phase vector only, with a fixed seed, so both
// codecs, every process and every run place a query on the same shard.
// The configuration part (configSeed) is computed once per distinct
// configuration; queryHash continues it over the cores one word each.
// Equal hashes do not imply equal queries: the LRU checks the query.
const (
	hashSeed = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
	hashMul  = 0xbf58476d1ce4e5b9 // splitmix64 multipliers
	hashMul2 = 0x94d049bb133111eb
)

// hashWord folds one 64-bit word into h: xor, multiply, xor-shift.
func hashWord(h, w uint64) uint64 {
	h = (h ^ w) * hashMul
	return h ^ h>>31
}

// configSeed hashes a manager configuration: scheme, model and the
// slack key's bytes, eight to a word, then their count.
func configSeed(cfg managerKey) uint64 {
	h := hashWord(hashSeed, uint64(cfg.scheme)<<32|uint64(uint32(cfg.model)))
	key := cfg.slackKey
	var w uint64
	for i := 0; i < len(key); i++ {
		w |= uint64(key[i]) << (8 * (i % 8))
		if i%8 == 7 {
			h, w = hashWord(h, w), 0
		}
	}
	return hashWord(hashWord(h, w), uint64(len(key)))
}

// queryHash continues a configuration seed over each core's (benchmark,
// phase) pair and finishes with the splitmix64 avalanche, so every input
// bit reaches the high bits shardIndex reads.
func queryHash(seed uint64, ids []simdb.BenchID, phases []int) uint64 {
	h := seed
	for i, id := range ids {
		h = hashWord(h, uint64(id)<<32|uint64(uint32(phases[i])))
	}
	h = (h ^ h>>30) * hashMul
	h = (h ^ h>>27) * hashMul2
	return h ^ h>>31
}

// shardIndex maps a query hash to one of n shards by its high 32 bits
// (multiply-shift range reduction), leaving the low bits, which the
// admission filter probes with, independent of the shard.
func shardIndex(h uint64, n int) int {
	return int((h >> 32) * uint64(n) >> 32)
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
//
//qosrma:allow(testonly) perfbench calls it
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
			sh.mgrResets.Add(1)
		}
		m = newManager(sh.sn, q)
		sh.mgrs[q.cfg] = m
		sh.managers.Store(int64(len(sh.mgrs)))
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
// stale-generation requests after a hot-swap and recomputes the reference
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

// process answers the queries of the batch this shard owns against sn,
// from the cache or by computing, holding the shard's lock: it adopts a
// newer snapshot, and answers a request older than the shard fresh. The
// counters move once per visit.
//
//qosrma:noalloc
func (sh *shard) process(sn *snapshot, f *fanout) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A batch that resolved against a snapshot swapped out since must
	// still be answered from that snapshot (no torn responses), so it is
	// computed fresh and the cache — which now encodes the newer
	// database — is left untouched.
	stale := false
	if sn != sh.sn {
		if sn.gen > sh.sn.gen {
			sh.adopt(sn)
		} else {
			stale = true
		}
	}
	var owned, hits, misses, rejects uint64
	n := len(sh.srv.shards)
	for i, q := range f.queries {
		if shardIndex(q.h, n) != sh.idx {
			continue
		}
		owned++
		if stale {
			f.results[i] = computeFresh(sn, q)
			continue
		}
		if res, ok := sh.lru.get(q); ok {
			hits++
			f.results[i] = res
			continue
		}
		misses++
		res := sh.compute(q)
		if sh.lru.admit(q.h) {
			sh.lru.add(q.clone(), res)
		} else if sh.srv.opt.CacheSize > 0 {
			rejects++
		}
		f.results[i] = res
	}
	sh.tasks.Add(owned)
	sh.hits.Add(hits)
	sh.misses.Add(misses)
	sh.admRejects.Add(rejects)
	sh.batches.Add(1)
}

// decideInto answers the batch of resolved queries in f against sn on
// the calling goroutine: f.results[i] receives the answer to
// f.queries[i]. Each shard the batch touches is visited once, in index
// order, and only one shard lock is held at a time. Both codecs call it
// with their resolver's fanout, which is what keeps a steady-state
// decision free of per-request allocation. The read lock pairs with
// Close's write lock, so Close and Shutdown wait for in-flight decides;
// after Close, requests fail fast. Draining is the callers' business:
// HTTP refuses new work, while a wire frame already read is answered
// (Shutdown waits for the wire loops before it closes).
func (s *Server) decideInto(sn *snapshot, f *fanout) error {
	start := time.Now()
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return errServerClosed
	}
	// Shard i is marked by bit i mod 64: past 64 shards one bit stands
	// for several shards, each of which scans the batch for its own
	// queries and may find none.
	var touched uint64
	n := len(s.shards)
	for _, q := range f.queries {
		touched |= 1 << (shardIndex(q.h, n) & 63)
	}
	for i, sh := range s.shards {
		if touched&(1<<(i&63)) != 0 {
			sh.process(sn, f)
		}
	}
	s.metrics.decideSeconds.Observe(time.Since(start).Seconds())
	s.metrics.decideBatch.Observe(float64(len(f.queries)))
	return nil
}

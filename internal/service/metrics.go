// Metrics wiring: every series qosrmad exposes on GET /metrics. The hot
// path is untouched — per-shard counters are the same atomics healthz has
// always read, bridged as CounterFuncs and sampled at scrape time; the
// only instruments on a request path are two histograms observed once per
// decide fan-out (not per query) and one counter per score request. The
// catalog is documented for operators in docs/operations.md, which the
// docs-check CI target keeps in sync with this file.
package service

import (
	"strconv"
	"time"

	"qosrma/internal/ops"
)

// serverMetrics holds the instruments handlers write to; everything else
// is func-backed and reads server state at scrape time.
type serverMetrics struct {
	reg *ops.Registry

	reloads       *ops.Counter
	scoreRequests *ops.Counter
	auditPass     *ops.Counter
	auditFail     *ops.Counter

	decideSeconds *ops.Histogram
	decideBatch   *ops.Histogram
}

// initMetrics builds the registry. Called from New after the shards and
// job table exist; the checker-backed series are only scraped after New
// returns, so reading s.checker lazily is safe.
func (s *Server) initMetrics() {
	m := &s.metrics
	m.reg = ops.NewRegistry()
	r := m.reg

	r.GaugeFunc("qosrmad_uptime_seconds",
		"Seconds since the server started.", "",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("qosrmad_snapshot_generation",
		"Swap generation of the serving database (1 = the database the server started with).", "",
		func() float64 { return float64(s.snap.Load().gen) })
	r.InfoFunc("qosrmad_snapshot_info",
		"Content hash and source of the serving database (always 1; the payload is the labels).",
		func() string {
			sn := s.snap.Load()
			return ops.Labels("hash", sn.hash, "source", sn.source)
		})
	m.reloads = r.Counter("qosrmad_reloads_total",
		"Successful database hot-swaps since start.", "")
	r.GaugeFunc("qosrmad_draining",
		"1 while the server refuses new work for graceful shutdown, else 0.", "",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	for i := range s.shards {
		sh := s.shards[i]
		lbl := ops.Labels("shard", strconv.Itoa(i))
		r.CounterFunc("qosrmad_decide_queries_total",
			"Decide queries processed, per shard.", lbl,
			func() float64 { return float64(sh.tasks.Load()) })
		r.CounterFunc("qosrmad_decide_cache_hits_total",
			"Decide queries answered from the shard's LRU, per shard.", lbl,
			func() float64 { return float64(sh.hits.Load()) })
		r.CounterFunc("qosrmad_decide_cache_misses_total",
			"Decide queries computed because the shard's LRU missed, per shard.", lbl,
			func() float64 { return float64(sh.misses.Load()) })
		r.CounterFunc("qosrmad_decide_admission_rejected_total",
			"Computed decisions the TinyLFU admission filter kept out of the shard's LRU, per shard.", lbl,
			func() float64 { return float64(sh.admRejects.Load()) })
		r.CounterFunc("qosrmad_decide_batches_total",
			"Shard worker wakeups (micro-batches drained), per shard.", lbl,
			func() float64 { return float64(sh.batches.Load()) })
		r.GaugeFunc("qosrmad_decide_managers",
			"Manager configurations live in the shard's pool, per shard.", lbl,
			func() float64 { return float64(sh.managers.Load()) })
		r.CounterFunc("qosrmad_decide_manager_resets_total",
			"Times a full manager pool was emptied to admit a new configuration, per shard.", lbl,
			func() float64 { return float64(sh.mgrResets.Load()) })
	}
	r.GaugeFunc("qosrmad_decide_cache_hit_ratio",
		"Fraction of all decide queries answered from cache (0 before any query).", "",
		func() float64 {
			var tasks, hits uint64
			for _, sh := range s.shards {
				tasks += sh.tasks.Load()
				hits += sh.hits.Load()
			}
			if tasks == 0 {
				return 0
			}
			return float64(hits) / float64(tasks)
		})
	m.decideSeconds = r.Histogram("qosrmad_decide_request_seconds",
		"Wall time of one decide fan-out (whole request batch).", "",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	m.decideBatch = r.Histogram("qosrmad_decide_batch_size",
		"Queries per decide request.", "",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})

	m.scoreRequests = r.Counter("qosrmad_score_requests_total",
		"Score requests served.", "")

	r.CounterFunc("qosrmad_wire_connections_total",
		"Binary-protocol connections accepted.", "",
		func() float64 { return float64(s.wire.conns.Load()) })
	r.GaugeFunc("qosrmad_wire_open_connections",
		"Binary-protocol connections currently open.", "",
		func() float64 { return float64(s.wire.open.Load()) })
	r.CounterFunc("qosrmad_wire_frames_total",
		"Binary-protocol frames decoded (any type).", "",
		func() float64 { return float64(s.wire.frames.Load()) })
	r.CounterFunc("qosrmad_wire_queries_total",
		"Decide queries answered over the binary protocol.", "",
		func() float64 { return float64(s.wire.queries.Load()) })
	r.CounterFunc("qosrmad_wire_decode_errors_total",
		"Malformed or unframeable binary-protocol input events.", "",
		func() float64 { return float64(s.wire.decodeErrs.Load()) })
	r.CounterFunc("qosrmad_wire_goaways_total",
		"Drain farewell (goaway) frames sent on binary-protocol connections.", "",
		func() float64 { return float64(s.wire.goaways.Load()) })

	r.GaugeFunc("qosrmad_inflight_requests",
		"Decide/score requests currently inside the load-shed gate.", "",
		func() float64 { return float64(s.gate.Inflight()) })
	r.GaugeFunc("qosrmad_inflight_limit",
		"Load-shed gate capacity (0 when the gate is disabled).", "",
		func() float64 { return float64(s.gate.Limit()) })
	r.CounterFunc("qosrmad_shed_total",
		"Decide/score requests refused with 503 by the load-shed gate.", "",
		func() float64 { return float64(s.gate.Shed()) })

	for _, state := range []string{"running", "done", "failed"} {
		state := state
		r.GaugeFunc("qosrmad_sweep_jobs",
			"Retained sweep jobs by state.", ops.Labels("state", state),
			func() float64 {
				running, done, failed := s.jobs.stateCounts()
				switch state {
				case "running":
					return float64(running)
				case "done":
					return float64(done)
				default:
					return float64(failed)
				}
			})
	}
	r.CounterFunc("qosrmad_sweep_cache_hits_total",
		"Sweep points answered from the engine's result cache.", "",
		func() float64 { h, _ := s.engine.Cache().Stats(); return float64(h) })
	r.CounterFunc("qosrmad_sweep_cache_misses_total",
		"Sweep points simulated because the result cache missed.", "",
		func() float64 { _, m := s.engine.Cache().Stats(); return float64(m) })

	m.auditPass = r.Counter("qosrmad_audit_total",
		"Self-checker audits by result.", ops.Labels("result", "pass"))
	m.auditFail = r.Counter("qosrmad_audit_total",
		"Self-checker audits by result.", ops.Labels("result", "fail"))
	r.GaugeFunc("qosrmad_audit_last_timestamp_seconds",
		"Unix time of the latest audit (0 before the first).", "",
		func() float64 {
			if rep, ok := s.checker.Last(); ok {
				return float64(rep.Time.Unix())
			}
			return 0
		})
	r.GaugeFunc("qosrmad_audit_last_mismatches",
		"Mismatches found by the latest audit.", "",
		func() float64 {
			if rep, ok := s.checker.Last(); ok {
				return float64(rep.Mismatches)
			}
			return 0
		})
}

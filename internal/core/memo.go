package core

import (
	"math"

	"qosrma/internal/arch"
)

// A manager decides once per distinct input. An energy curve is a pure
// function of the core's statistics and its LocalOptions, and a way
// allocation is a pure function of the ordered tuple of curves (vacant
// cores contributing the idle curve). Keyed statistics
// (IntervalStats.Key) name their inputs, so each manager keeps a table of
// the curves built from them and a memo of the allocations reduced from
// those curves. Both are per manager: a manager is owned by one simulator
// or one serving shard, so neither needs a lock, and neither can outlive
// the database its keys refer to.
const (
	// curveLimit bounds the curves in one manager's table and allocLimit
	// the allocations in its memo. When either fills, both are emptied:
	// curve IDs restart, so every memo key and every retained per-core ID
	// is invalidated at the same moment.
	curveLimit = 1024
	allocLimit = 2048
	// memoCores is the widest system whose allocations are memoized (the
	// 8-core systems the repository builds); wider systems still use the
	// curve table.
	memoCores = 8
	// idleID stands for a vacant core's idle curve in an allocation key.
	// Table curves have IDs 1..curveLimit; ID 0 marks a curve built from
	// unkeyed statistics, which no memo key may contain.
	idleID = math.MaxUint16
)

// curveKey names one table curve: the records behind the statistics plus
// the options that differ between a manager's cores and calls (the rest
// of LocalOptions is fixed by the scheme).
type curveKey struct {
	stats   uint64
	maxWays int
	slack   uint64 // math.Float64bits of the core's QoS slack
}

// allocKey is the ordered tuple of per-core curve IDs. Order is part of
// the key because the way-allocation DP breaks ties by core position: two
// orders of the same curves can reduce to different allocations.
type allocKey [memoCores]uint16

// allocEntry is one memoized reduction: the ways per core, or ok == false
// when no feasible allocation exists.
type allocEntry struct {
	ways [memoCores]uint8
	ok   bool
}

// decisionMemo is a manager's curve table and allocation memo. Table
// curves are immutable: no path passes one to BuildCurveInto as a reuse
// buffer.
type decisionMemo struct {
	ids    map[curveKey]uint16
	curves []*Curve // by ID-1
	allocs map[allocKey]allocEntry
}

// resetMemo empties the curve table and the allocation memo and
// invalidates every retained per-core curve ID, so no stale ID can name a
// curve the table later issues under the same number. The curves already
// handed out stay valid; they are just no longer shared.
func (m *Manager) resetMemo() {
	clear(m.memo.ids)
	clear(m.memo.curves)
	m.memo.curves = m.memo.curves[:0]
	clear(m.memo.allocs)
	clear(m.ids)
}

// curve returns the core's energy curve for st and its table ID. Keyed
// statistics on a manager without feedback are served from the table and
// built on a miss; anything else is built into the core's own reusable
// buffer and gets ID 0 (the phase-history feedback makes a curve depend on
// more than its statistics).
//
//qosrma:noalloc
func (m *Manager) curve(core int, st *IntervalStats) (*Curve, uint16) {
	opt := m.localOptions(core)
	if st.Key == 0 || m.feedback != nil {
		m.own[core] = m.pred.BuildCurveInto(st, opt, m.own[core])
		return m.own[core], 0
	}
	k := curveKey{stats: st.Key, maxWays: opt.MaxWays, slack: math.Float64bits(opt.Slack)}
	if id, ok := m.memo.ids[k]; ok {
		return m.memo.curves[id-1], id
	}
	if len(m.memo.curves) == curveLimit {
		m.resetMemo()
	}
	//qosrma:allow(noalloc) table miss: each distinct input builds its curve once
	c := m.pred.BuildCurveInto(st, opt, nil)
	m.memo.curves = append(m.memo.curves, c)
	id := uint16(len(m.memo.curves))
	m.memo.ids[k] = id
	return c, id
}

// allocKey returns the memo key of the current decision curves, or false
// when the reduction must not be memoized: the system is wider than
// memoCores, or an occupied core's curve did not come from the table.
func (m *Manager) allocKey() (allocKey, bool) {
	var k allocKey
	if len(m.ids) > memoCores || m.cfg.Sys.LLC.Assoc > math.MaxUint8 {
		return k, false
	}
	for i, id := range m.ids {
		switch {
		case !m.occupied[i]:
			k[i] = idleID
		case id == 0:
			return k, false
		default:
			k[i] = id
		}
	}
	return k, true
}

// allocate runs the coordinated schemes' global reduction over the
// decision curves and applies its allocation, answering from the memo
// when every occupied core's curve came from the table.
//
//qosrma:noalloc
func (m *Manager) allocate(curves []*Curve) ([]arch.Setting, bool) {
	key, keyed := m.allocKey()
	if keyed {
		if e, hit := m.memo.allocs[key]; hit {
			if !e.ok {
				return nil, false
			}
			var buf [memoCores]int
			alloc := buf[:len(curves)]
			for i := range alloc {
				alloc[i] = int(e.ways[i])
			}
			return m.apply(curves, alloc), true
		}
	}
	alloc, ok := AllocateWaysInto(curves, m.cfg.Sys.LLC.Assoc, &m.ways)
	if keyed {
		if len(m.memo.allocs) == allocLimit {
			// Emptying the memo empties the table too, which invalidates
			// the IDs in key: the entry is dropped.
			m.resetMemo()
		} else {
			e := allocEntry{ok: ok}
			for i, w := range alloc { // nil when !ok
				e.ways[i] = uint8(w)
			}
			//qosrma:allow(noalloc) memo miss: the map grows up to allocLimit entries
			m.memo.allocs[key] = e
		}
	}
	if !ok {
		return nil, false
	}
	return m.apply(curves, alloc), true
}

// apply turns an allocation into the per-core settings, parks vacant
// cores at the baseline (the ways the idle curve absorbed are simply
// unclaimed) and returns the documented defensive copy.
//
//qosrma:noalloc
func (m *Manager) apply(curves []*Curve, alloc []int) []arch.Setting {
	m.settings = SettingsFromCurvesInto(m.settings, curves, alloc)
	for i := range m.settings {
		if !m.occupied[i] {
			m.settings[i] = m.cfg.Sys.BaselineSetting()
		}
	}
	return m.Settings()
}

package core

import (
	"fmt"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/power"
)

// Scheme identifies a resource-management algorithm evaluated in the paper.
type Scheme int

const (
	// SchemeStatic keeps the baseline allocation (the QoS reference).
	SchemeStatic Scheme = iota
	// SchemeDVFSOnly controls only per-core frequency at the fixed equal
	// partition. Under QoS targets defined by the baseline it has no room
	// to scale down (the paper notes it "cannot save energy without
	// degrading the performance").
	SchemeDVFSOnly
	// SchemePartitionOnly (RM1) repartitions the LLC at the baseline
	// frequency and size, subject to QoS feasibility.
	SchemePartitionOnly
	// SchemeCoordDVFSCache (RM2) coordinates per-core DVFS with LLC
	// partitioning — the IPDPS 2019 / Paper I contribution.
	SchemeCoordDVFSCache
	// SchemeCoordCoreDVFSCache (RM3) additionally reconfigures the core
	// micro-architecture — the Paper II contribution.
	SchemeCoordCoreDVFSCache
	// SchemeUCPDVFS is the uncoordinated design the paper argues against:
	// the LLC is partitioned by miss-minimizing UCP lookahead with no
	// notion of per-application QoS, and an independent QoS-aware DVFS
	// controller then picks each core's minimum feasible frequency given
	// whatever allocation it was handed.
	SchemeUCPDVFS
)

// String names the scheme as the papers do.
func (s Scheme) String() string {
	switch s {
	case SchemeStatic:
		return "Static"
	case SchemeDVFSOnly:
		return "DVFS-only"
	case SchemePartitionOnly:
		return "RM1-Partitioning"
	case SchemeCoordDVFSCache:
		return "RM2-DVFS+Cache"
	case SchemeCoordCoreDVFSCache:
		return "RM3-Core+DVFS+Cache"
	case SchemeUCPDVFS:
		return "UCP+DVFS-uncoord"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config configures a resource manager instance.
type Config struct {
	Sys    arch.SystemConfig
	Power  power.Params
	Scheme Scheme
	Model  ModelKind
	// Slack is the per-core QoS relaxation (fraction of tolerated
	// execution-time increase); nil means zero for every core.
	Slack []float64
	// Feedback enables the phase-history MLP table (the thesis' software
	// alternative to the MLP-ATD hardware; see FeedbackTable).
	Feedback bool
}

// Manager is the online resource manager. It retains the most recent energy
// curve per core (the paper's "other cores already available" state) and,
// on each invocation, rebuilds the invoking core's curve and re-runs the
// global optimization — once per distinct input: curves and allocations
// derived from keyed statistics are memoized (memo.go).
type Manager struct {
	cfg       Config
	pred      Predictor
	curves    []*Curve // per core: the curve the reduction reads (table-owned or own)
	ids       []uint16 // per core: table ID of curves[i]; 0 when not from the table
	own       []*Curve // per core: reusable buffer for curves of unkeyed statistics
	memo      decisionMemo
	settings  []arch.Setting
	feedback  []*FeedbackTable // per core; nil when disabled
	lastStats []*IntervalStats // per core; kept for the uncoordinated scheme

	localOpts []LocalOptions // per-core search space, precomputed
	ways      WaysScratch    // reusable global-reduction state
	profiles  [][]float64    // reusable miss-profile vector (UCP scheme)

	// occupied tracks which cores currently host an application (all of
	// them in the classic closed-world simulation). Vacant cores take no
	// part in the QoS optimization: they contribute the shared idle curve,
	// which absorbs surplus cache ways at zero cost.
	occupied []bool
	vacant   int       // number of unoccupied cores
	idle     *Curve    // shared zero-cost stand-in curve for vacant cores
	decision []*Curve  // scratch curve set mixing real and idle curves
	zeroProf []float64 // scratch all-zero miss profile for vacant cores (UCP)

	// Invocations counts Decide calls (diagnostics).
	Invocations int
}

// NewManager builds a resource manager with every core at the baseline
// setting.
func NewManager(cfg Config) *Manager {
	n := cfg.Sys.NumCores
	if cfg.Slack == nil {
		cfg.Slack = make([]float64, n)
	}
	if len(cfg.Slack) != n {
		panic("core: slack vector length mismatch")
	}
	m := &Manager{
		cfg:    cfg,
		pred:   Predictor{Sys: &cfg.Sys, Power: cfg.Power, Kind: cfg.Model},
		curves: make([]*Curve, n),
		ids:    make([]uint16, n),
		own:    make([]*Curve, n),
		memo: decisionMemo{
			ids:    make(map[curveKey]uint16),
			allocs: make(map[allocKey]allocEntry),
		},
		settings:  make([]arch.Setting, n),
		lastStats: make([]*IntervalStats, n),
		occupied:  make([]bool, n),
	}
	for i := range m.occupied {
		m.occupied[i] = true
	}
	if cfg.Feedback {
		m.feedback = make([]*FeedbackTable, n)
		for i := range m.feedback {
			m.feedback[i] = NewFeedbackTable(cfg.Sys.LLC.Assoc)
		}
	}
	for i := range m.settings {
		m.settings[i] = cfg.Sys.BaselineSetting()
	}
	m.localOpts = make([]LocalOptions, n)
	for i := range m.localOpts {
		m.localOpts[i] = m.computeLocalOptions(i)
	}
	return m
}

// Settings returns the currently applied per-core settings.
func (m *Manager) Settings() []arch.Setting {
	return append([]arch.Setting(nil), m.settings...)
}

// Slack returns the QoS relaxation configured for a core.
func (m *Manager) Slack(core int) float64 { return m.cfg.Slack[core] }

// Vacate marks the core unoccupied and clears its management state — the
// retained energy curve, the last interval statistics and the phase-history
// feedback table — so a later application placed on the core inherits
// nothing from its predecessor. The core is parked at the baseline setting
// and thereafter contributes a zero-cost curve to the global optimization
// (its cache ways become surplus the occupied cores can claim). Used by the
// open-system cluster simulator when a job departs.
func (m *Manager) Vacate(core int) {
	if !m.occupied[core] {
		return
	}
	m.occupied[core] = false
	m.vacant++
	m.curves[core] = nil
	m.ids[core] = 0
	m.lastStats[core] = nil
	if m.feedback != nil {
		m.feedback[core] = NewFeedbackTable(m.cfg.Sys.LLC.Assoc)
	}
	m.settings[core] = m.cfg.Sys.BaselineSetting()
}

// Occupy marks the core occupied again (a new application was placed on
// it). The core stays at the baseline setting until its first completed
// interval gives the manager statistics to optimize with.
func (m *Manager) Occupy(core int) {
	if m.occupied[core] {
		return
	}
	m.occupied[core] = true
	m.vacant--
}

// Rebaseline returns every core to the baseline allocation — the safe
// equal partition an arrival falls back to until fresh statistics let the
// optimization repartition — and returns the settings for the simulator to
// apply (charging reconfiguration overheads where allocations change).
func (m *Manager) Rebaseline() []arch.Setting {
	for i := range m.settings {
		m.settings[i] = m.cfg.Sys.BaselineSetting()
	}
	return m.Settings()
}

// decisionCurves returns the curve set for the global reduction: occupied
// cores contribute their own curves and vacant cores the shared idle curve.
// With every core occupied it is the curves slice itself (the closed-world
// fast path allocates nothing).
func (m *Manager) decisionCurves() []*Curve {
	if m.vacant == 0 {
		return m.curves
	}
	if m.idle == nil {
		m.idle = IdleCurve(m.cfg.Sys.LLC.Assoc, m.cfg.Sys.BaselineSetting())
		m.decision = make([]*Curve, len(m.curves))
	}
	for i, c := range m.curves {
		if m.occupied[i] {
			m.decision[i] = c
		} else {
			m.decision[i] = m.idle
		}
	}
	return m.decision
}

// Scheme returns the configured scheme.
func (m *Manager) Scheme() Scheme { return m.cfg.Scheme }

// computeLocalOptions derives the per-core search space for the configured
// scheme; NewManager precomputes it once per core (localOptions reads it).
func (m *Manager) computeLocalOptions(core int) LocalOptions {
	sys := m.cfg.Sys
	maxWays := sys.LLC.Assoc - (sys.NumCores - 1)
	opt := LocalOptions{
		Slack:   m.cfg.Slack[core],
		MaxWays: maxWays,
	}
	switch m.cfg.Scheme {
	case SchemeStatic:
		// Static never re-decides — Decide answers before consulting the
		// search space — so only the shape matters: pin the baseline point.
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
		opt.Freqs = []int{sys.BaselineFreqIdx}
	case SchemePartitionOnly:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
		opt.Freqs = []int{sys.BaselineFreqIdx}
	case SchemeDVFSOnly, SchemeUCPDVFS:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
	case SchemeCoordDVFSCache:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
	case SchemeCoordCoreDVFSCache:
		opt.Sizes = []arch.CoreSize{arch.SizeSmall, arch.SizeMedium, arch.SizeLarge}
		opt.MinEnergyFreq = true
	}
	if opt.Freqs == nil {
		// Materialize the "all frequencies" default once per manager so
		// BuildCurveInto never allocates the index slice per invocation.
		opt.Freqs = make([]int, len(sys.DVFS))
		for i := range opt.Freqs {
			opt.Freqs[i] = i
		}
	}
	return opt
}

// localOptions returns the per-core search space for the configured
// scheme. With vacancies, the per-core way cap widens to reserve one way
// only per *occupied* co-runner, so a lightly loaded machine can actually
// grant a tenant the ways its idle neighbours released (curves built
// before an occupancy change keep their narrower cap until their core's
// next rebuild — transiently conservative, never infeasible, and the
// closed-world path is untouched).
func (m *Manager) localOptions(core int) LocalOptions {
	opt := m.localOpts[core]
	if m.vacant > 0 {
		opt.MaxWays = m.cfg.Sys.LLC.Assoc - (m.cfg.Sys.NumCores - m.vacant - 1)
	}
	return opt
}

// Decide is the RMA invocation: core invoker has completed an interval with
// the given statistics. It returns the new settings for all cores and true,
// or nil and false when the manager keeps the current settings (static
// scheme, warm-up, or no feasible allocation).
//
//qosrma:noalloc
func (m *Manager) Decide(invoker int, st *IntervalStats) ([]arch.Setting, bool) {
	m.Invocations++
	sys := m.cfg.Sys

	if m.feedback != nil {
		// Record the completed interval in the invoker's phase table and
		// make the table available to the predictor for this invocation.
		m.feedback[invoker].Observe(st)
		m.pred.Feedback = m.feedback[invoker]
		//qosrma:allow(noalloc) deferred reset closure is open-coded and never escapes
		defer func() { m.pred.Feedback = nil }()
	}

	m.lastStats[invoker] = st

	switch m.cfg.Scheme {
	case SchemeStatic:
		return nil, false

	case SchemeUCPDVFS:
		return m.decideUncoordinated()

	case SchemeDVFSOnly:
		// Frequency-only control at the fixed equal partition: pick the
		// cheapest feasible frequency for the invoker alone.
		c, _ := m.curve(invoker, st)
		o := c.Options[sys.BaselineWays()]
		if !o.Feasible {
			return nil, false
		}
		m.settings[invoker] = arch.Setting{
			Size: o.Size, FreqIdx: o.FreqIdx, Ways: sys.BaselineWays(),
		}
		return m.Settings(), true

	case SchemePartitionOnly, SchemeCoordDVFSCache, SchemeCoordCoreDVFSCache:
		// Handled by the coordinated reduction below.
	}

	// Coordinated schemes: rebuild the invoker's curve, reuse the last
	// curves of the other cores (thesis Fig. 3.1/3.2). Vacant cores stand
	// in with the shared idle curve.
	m.curves[invoker], m.ids[invoker] = m.curve(invoker, st)
	curves := m.decisionCurves()
	for i, c := range curves {
		if c == nil && m.occupied[i] {
			// First invocations: some cores have no statistics yet — keep
			// the baseline setting (thesis Chapter 2, footnote 2).
			return nil, false
		}
	}
	return m.allocate(curves)
}

// DecideAll is the one-shot batch form of Decide: statistics for every
// occupied core arrive together and the manager answers with the settings
// the sequential invocation order (Decide(0, st[0]) … Decide(n-1, st[n-1]))
// would have produced — bit-identically, a property the decision service's
// tests pin. Every occupied core's curve is looked up or rebuilt, so a
// manager kept per serving shard answers repeated queries without
// allocating and without leaking curve state between queries (stale
// curves from a previous query are always replaced before the global
// reduction runs). Entries of st may be nil for vacant cores.
//
//qosrma:noalloc
func (m *Manager) DecideAll(st []*IntervalStats) ([]arch.Setting, bool) {
	if len(st) != len(m.settings) {
		panic("core: DecideAll statistics length mismatch")
	}
	m.Invocations++
	sys := m.cfg.Sys

	if m.feedback != nil {
		for i, s := range st {
			if s != nil && m.occupied[i] {
				m.feedback[i].Observe(s)
			}
		}
	}
	for i, s := range st {
		if m.occupied[i] && s != nil {
			m.lastStats[i] = s
		}
	}

	switch m.cfg.Scheme {
	case SchemeStatic:
		return nil, false

	case SchemeUCPDVFS:
		// The sequential order's decisive invocation is the last core with
		// statistics, and its Decide runs the whole uncoordinated pass with
		// that core's feedback table installed — reproduce exactly that.
		if m.feedback != nil {
			for i := len(st) - 1; i >= 0; i-- {
				if m.occupied[i] && st[i] != nil {
					m.pred.Feedback = m.feedback[i]
					break
				}
			}
			//qosrma:allow(noalloc) deferred reset closure is open-coded and never escapes
			defer func() { m.pred.Feedback = nil }()
		}
		return m.decideUncoordinated()

	case SchemeDVFSOnly:
		// Independent per-core frequency choices, applied in core order
		// exactly as the sequential loop would: infeasible cores keep their
		// current setting, and the call reports a decision when the final
		// core's did (matching the loop's last return value).
		changed := false
		for i, s := range st {
			if !m.occupied[i] || s == nil {
				continue
			}
			if m.feedback != nil {
				m.pred.Feedback = m.feedback[i]
			}
			c, _ := m.curve(i, s)
			o := c.Options[sys.BaselineWays()]
			changed = o.Feasible
			if !o.Feasible {
				continue
			}
			m.settings[i] = arch.Setting{
				Size: o.Size, FreqIdx: o.FreqIdx, Ways: sys.BaselineWays(),
			}
		}
		m.pred.Feedback = nil
		if !changed {
			return nil, false
		}
		return m.Settings(), true

	case SchemePartitionOnly, SchemeCoordDVFSCache, SchemeCoordCoreDVFSCache:
		// Handled by the coordinated reduction below.
	}

	// Coordinated schemes: rebuild every occupied core's curve, then run
	// one global reduction (the sequential loop's intermediate reductions
	// are unobservable — only the final one, over these same curves,
	// determines the answer).
	for i, s := range st {
		if !m.occupied[i] {
			continue
		}
		if s == nil {
			if m.curves[i] == nil {
				return nil, false // warm-up: a core has no statistics yet
			}
			continue
		}
		if m.feedback != nil {
			m.pred.Feedback = m.feedback[i]
		}
		m.curves[i], m.ids[i] = m.curve(i, s)
	}
	m.pred.Feedback = nil
	return m.allocate(m.decisionCurves())
}

// decideUncoordinated implements the independent-controller design: UCP
// partitions the cache to minimize total misses, then a QoS-aware DVFS
// controller independently picks each core's frequency for the allocation
// it was handed. When a core's QoS cannot be met at its UCP share even at
// the maximum frequency, it runs at maximum frequency — the violation the
// paper's coordinated design exists to prevent.
func (m *Manager) decideUncoordinated() ([]arch.Setting, bool) {
	sys := m.cfg.Sys
	if cap(m.profiles) < len(m.lastStats) {
		m.profiles = make([][]float64, len(m.lastStats))
	}
	profiles := m.profiles[:len(m.lastStats)]
	for i, st := range m.lastStats {
		if !m.occupied[i] {
			// Vacant cores miss nothing: UCP hands them the minimum share.
			if m.zeroProf == nil {
				m.zeroProf = make([]float64, sys.LLC.Assoc+1)
			}
			profiles[i] = m.zeroProf
			continue
		}
		if st == nil {
			return nil, false // warm-up: keep the baseline
		}
		profiles[i] = st.ATDMisses
	}
	alloc := cache.UCPLookahead(profiles, sys.LLC.Assoc, 1)
	for i, st := range m.lastStats {
		if !m.occupied[i] {
			m.settings[i] = sys.BaselineSetting()
			continue
		}
		c, _ := m.curve(i, st)
		if o := c.Options[alloc[i]]; o.Feasible {
			m.settings[i] = arch.Setting{Size: o.Size, FreqIdx: o.FreqIdx, Ways: alloc[i]}
		} else {
			m.settings[i] = arch.Setting{
				Size: sys.BaselineSize, FreqIdx: len(sys.DVFS) - 1, Ways: alloc[i],
			}
		}
	}
	return m.Settings(), true
}

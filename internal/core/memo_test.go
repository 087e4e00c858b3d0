package core

import (
	"math"
	"math/rand"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// variantStats returns the i-th of a family of distinct synthetic
// statistics on core c, keyed i+1 when keyed is set (the key contract:
// equal keys name equal statistics, whatever the core).
func variantStats(sys arch.SystemConfig, i, c int, keyed bool) *IntervalStats {
	profile := missProfile(sys.LLC.Assoc, 1e6+float64(i%97)*2e4, 1.5e5+float64(i%5)*2e4, 2+i%12)
	st := fakeStats(sys, 1+float64(i%7)*0.3, 12, profile, 1+float64(i%3)*0.5)
	st.Core = c
	if keyed {
		st.Key = uint64(i + 1)
	}
	return st
}

// unkeyed is st with its key cleared: the same statistics, uncached.
func unkeyed(st *IntervalStats) *IntervalStats {
	if st == nil {
		return nil
	}
	c := *st
	c.Key = 0
	return &c
}

func newTwins(scheme Scheme, kind ModelKind, slack []float64, feedback bool) (keyed, plain *Manager, sys arch.SystemConfig) {
	sys = arch.DefaultSystemConfig(4)
	cfg := Config{Sys: sys, Power: power.DefaultParams(sys), Scheme: scheme, Model: kind, Slack: slack, Feedback: feedback}
	return NewManager(cfg), NewManager(cfg), sys
}

// sameDecision fails the test unless both managers gave the same answer
// and hold the same state.
func sameDecision(t *testing.T, step int, keyed, plain *Manager, gotS, wantS []arch.Setting, gotOK, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || len(gotS) != len(wantS) {
		t.Fatalf("step %d: keyed ok=%v %v, unkeyed ok=%v %v", step, gotOK, gotS, wantOK, wantS)
	}
	for i := range gotS {
		if gotS[i] != wantS[i] {
			t.Fatalf("step %d core %d: keyed %v, unkeyed %v", step, i, gotS[i], wantS[i])
		}
	}
	k, p := keyed.Settings(), plain.Settings()
	for i := range k {
		if k[i] != p[i] {
			t.Fatalf("step %d core %d: keyed manager holds %v, unkeyed %v", step, i, k[i], p[i])
		}
	}
	if keyed.Invocations != plain.Invocations {
		t.Fatalf("step %d: keyed counted %d invocations, unkeyed %d", step, keyed.Invocations, plain.Invocations)
	}
}

// TestTableBoundResets fills the curve table past curveLimit and the
// allocation memo past allocLimit with synthetic keys. Each fill must
// empty both structures and invalidate every retained per-core ID, and
// every decision before and after must match an unkeyed twin: a stale ID
// naming a reissued curve would hand a core another input's allocation.
func TestTableBoundResets(t *testing.T) {
	for _, tc := range []struct {
		name     string
		variants int // distinct keys the invocations draw from
		steps    int
	}{
		{"curves", 3 * curveLimit, 3 * curveLimit},
		{"allocs", 12, 3 * allocLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keyed, plain, sys := newTwins(SchemeCoordDVFSCache, Model2, nil, false)
			rng := rand.New(rand.NewSource(1))
			resets := 0
			for step := 0; step < tc.steps; step++ {
				c := step % sys.NumCores
				v := rng.Intn(tc.variants)
				if tc.name == "curves" && c == 0 {
					v = step // core 0 keeps drawing new keys; the others hold theirs
				}
				st := variantStats(sys, v, c, true)
				before := len(keyed.memo.curves) + len(keyed.memo.allocs)
				gotS, gotOK := keyed.Decide(c, st)
				wantS, wantOK := plain.Decide(c, unkeyed(st))
				sameDecision(t, step, keyed, plain, gotS, wantS, gotOK, wantOK)
				if n := len(keyed.memo.curves); n > curveLimit {
					t.Fatalf("step %d: table holds %d curves, bound %d", step, n, curveLimit)
				}
				if n := len(keyed.memo.allocs); n > allocLimit {
					t.Fatalf("step %d: memo holds %d allocations, bound %d", step, n, allocLimit)
				}
				if after := len(keyed.memo.curves) + len(keyed.memo.allocs); after < before {
					resets++
					for i, id := range keyed.ids {
						if i != c && id != 0 {
							t.Fatalf("step %d: core %d kept curve ID %d across a reset", step, i, id)
						}
					}
					if len(keyed.memo.allocs) > 1 || len(keyed.memo.curves) > 1 {
						t.Fatalf("step %d: reset left %d curves and %d allocations", step, len(keyed.memo.curves), len(keyed.memo.allocs))
					}
				}
			}
			if resets < 2 {
				t.Fatalf("%d resets in %d steps, want at least 2", resets, tc.steps)
			}
		})
	}
}

// TestFeedbackBypassesTable: with the phase-history feedback on, a curve
// depends on more than its statistics, so keyed statistics must neither
// fill the table nor the memo, and decisions match an unkeyed twin.
func TestFeedbackBypassesTable(t *testing.T) {
	for _, scheme := range []Scheme{SchemeDVFSOnly, SchemeCoordDVFSCache, SchemeUCPDVFS} {
		keyed, plain, sys := newTwins(scheme, Model3, nil, true)
		for step := 0; step < 200; step++ {
			c := step % sys.NumCores
			st := variantStats(sys, step%5+c, c, true)
			st.Setting.Ways = 1 + step%sys.LLC.Assoc // spread the feedback table's rows
			gotS, gotOK := keyed.Decide(c, st)
			wantS, wantOK := plain.Decide(c, unkeyed(st))
			sameDecision(t, step, keyed, plain, gotS, wantS, gotOK, wantOK)
		}
		if len(keyed.memo.curves) != 0 || len(keyed.memo.allocs) != 0 {
			t.Fatalf("%v with feedback cached %d curves and %d allocations", scheme, len(keyed.memo.curves), len(keyed.memo.allocs))
		}
	}
}

// TestTableCurveImmutable: once a core's curve comes from the table, a
// later unkeyed Decide on the same core builds into the core's own buffer
// and leaves the table curve's bits as they were.
func TestTableCurveImmutable(t *testing.T) {
	m, sys := managerFor(SchemeCoordCoreDVFSCache, Model3)
	for c := 0; c < sys.NumCores; c++ {
		m.Decide(c, variantStats(sys, c, c, true))
	}
	table := m.memo.curves[0]
	snapshot := append([]Option(nil), table.Options...)
	m.Decide(0, variantStats(sys, 40, 0, false))
	m.Decide(0, variantStats(sys, 41, 0, false))
	if m.curves[0] == table {
		t.Fatal("unkeyed Decide left core 0 on the table curve")
	}
	for w, o := range table.Options {
		s := snapshot[w]
		if o.Size != s.Size || o.FreqIdx != s.FreqIdx || o.Feasible != s.Feasible ||
			math.Float64bits(o.EPI) != math.Float64bits(s.EPI) {
			t.Fatalf("table curve option %d changed from %+v to %+v", w, s, o)
		}
	}
}

// TestMemoStoresInfeasible: a reduction with no feasible allocation is
// memoized too, and a hit on it must still answer "no decision".
func TestMemoStoresInfeasible(t *testing.T) {
	keyed, plain, sys := newTwins(SchemeCoordDVFSCache, Model2, nil, false)
	for step := 0; step < 3*sys.NumCores; step++ {
		c := step % sys.NumCores
		st := variantStats(sys, c, c, true)
		if c == 0 {
			// Degenerate counters (a negative cycle count) leave core 0
			// with no feasible option at any way count.
			st.IlpIPC = 2
			st.BranchMisses = -1e12
		}
		gotS, gotOK := keyed.Decide(c, st)
		wantS, wantOK := plain.Decide(c, unkeyed(st))
		sameDecision(t, step, keyed, plain, gotS, wantS, gotOK, wantOK)
		if gotOK {
			t.Fatalf("step %d: decided although core 0 is infeasible", step)
		}
	}
	if len(keyed.memo.allocs) != 1 {
		t.Fatalf("memo holds %d allocations, want the one infeasible reduction", len(keyed.memo.allocs))
	}
	for _, e := range keyed.memo.allocs {
		if e.ok {
			t.Fatal("infeasible reduction memoized as feasible")
		}
	}
}

package main

import (
	"sort"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/wire"
)

// checkResult is the outcome of comparing served answers with the library.
type checkResult struct {
	checked    int64   // queries compared
	mismatches int64   // queries whose answer differs in any bit
	savingsPct float64 // mean predicted energy savings of the checked answers
}

// libraryDecide is the reference decision for one co-phase vector: a
// fresh manager driven core by core with the oracle statistics, exactly as
// a library caller would.
func libraryDecide(db *simdb.DB, apps []wire.App) ([]arch.Setting, bool) {
	n := db.Sys.NumCores
	mgr := core.NewManager(managerConfig(db))
	var (
		settings []arch.Setting
		ok       bool
	)
	for i, a := range apps {
		settings, ok = mgr.Decide(i, service.OracleStats(db, simdb.BenchID(a.Bench), int(a.Phase), i))
	}
	if !ok {
		settings = make([]arch.Setting, n)
		for i := range settings {
			settings[i] = db.Sys.BaselineSetting()
		}
	}
	return settings, ok
}

// managerConfig is the configuration every generated query asks for: RM2
// with its default model and a uniform slack.
func managerConfig(db *simdb.DB) core.Config {
	sl := make([]float64, db.Sys.NumCores)
	for i := range sl {
		sl[i] = slack
	}
	return core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: core.SchemeCoordDVFSCache,
		Model:  core.Model2,
		Slack:  sl,
	}
}

// checkAnswers compares every recorded window's answers with the library,
// bit for bit, and averages the predicted energy savings of the answers.
func checkAnswers(db *simdb.DB, pop population, answers map[int]*answer) checkResult {
	var res checkResult
	savings := 0.0
	ws := make([]int, 0, len(answers))
	for w := range answers {
		ws = append(ws, w)
	}
	sort.Ints(ws)
	n := pop.n
	for _, w := range ws {
		a := answers[w]
		for j := 0; j < batchSize; j++ {
			res.checked++
			if len(a.decided) != batchSize || len(a.settings) != batchSize*n {
				res.mismatches++
				continue
			}
			apps := pop.query(w, j)
			want, ok := libraryDecide(db, apps)
			got := a.settings[j*n : (j+1)*n]
			same := ok == a.decided[j]
			for i := range want {
				same = same && want[i] == got[i]
			}
			if !same {
				res.mismatches++
				continue
			}
			savings += querySavings(db, apps, got)
		}
	}
	if ok := res.checked - res.mismatches; ok > 0 {
		res.savingsPct = 100 * savings / float64(ok)
	}
	return res
}

// querySavings is the predicted energy saving of running each core's phase
// slice at its decided setting instead of the baseline.
func querySavings(db *simdb.DB, apps []wire.App, settings []arch.Setting) float64 {
	base := db.BaselineIdx()
	e, e0 := 0.0, 0.0
	for i, a := range apps {
		id := simdb.BenchID(a.Bench)
		e += db.PerfAt(id, int(a.Phase), db.Lattice.Index(settings[i])).Energy.Total()
		e0 += db.PerfAt(id, int(a.Phase), base).Energy.Total()
	}
	return 1 - e/e0
}

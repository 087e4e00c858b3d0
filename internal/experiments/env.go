// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner produces a formatted table (for
// cmd/experiments and EXPERIMENTS.md) and structured results (for tests and
// benchmarks). The experiment index and the paper-reported reference values
// live in docs/architecture.md and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sync"

	"qosrma/internal/arch"
	"qosrma/internal/rmasim"
	"qosrma/internal/simdb"
	"qosrma/internal/sweep"
	"qosrma/internal/trace"
	"qosrma/internal/workload"
)

// Env bundles the simulation databases and benchmark characterizations the
// experiments share. Building it corresponds to the offline detailed-
// simulation step of the methodology (thesis Figure 2.1).
type Env struct {
	DB4, DB8  *simdb.DB
	Profiles4 []*workload.Profile
	Profiles8 []*workload.Profile
	Mixes4    []workload.Mix // the 20 Paper I four-core workloads
	Mixes8    []workload.Mix // the 10 Paper I eight-core workloads
	MixesII   []workload.Mix // the 16 Paper II category-pair mixes
}

// BuildEnv constructs the shared environment. It is deterministic. The 4-
// and 8-core databases are built together on one worker pool
// (simdb.BuildAll): their per-phase jobs interleave, SimPoint analyses are
// computed once, and — because the two systems share every
// profile-relevant parameter — each phase's detailed simulation runs once
// and serves both databases through the process-wide profile cache.
func BuildEnv() (*Env, error) {
	suite := trace.Suite()
	opt := simdb.DefaultBuildOptions()

	dbs, err := simdb.BuildAll([]arch.SystemConfig{
		arch.DefaultSystemConfig(4),
		arch.DefaultSystemConfig(8),
	}, suite, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: build databases: %w", err)
	}
	db4, db8 := dbs[0], dbs[1]
	p4, err := workload.CharacterizeAll(db4)
	if err != nil {
		return nil, err
	}
	p8, err := workload.CharacterizeAll(db8)
	if err != nil {
		return nil, err
	}
	return &Env{
		DB4:       db4,
		DB8:       db8,
		Profiles4: p4,
		Profiles8: p8,
		Mixes4:    workload.PaperIMixes(p4, 4, 20),
		Mixes8:    workload.PaperIMixes(p8, 8, 10),
		MixesII:   workload.PaperIIMixes(p4),
	}, nil
}

var (
	sharedOnce sync.Once
	sharedEnv  *Env
	sharedErr  error
)

// SharedEnv returns a lazily built process-wide environment, so the tests
// and benchmarks of one process build the databases exactly once.
//
//qosrma:allow(testonly) the experiments tests and the root benchmarks share one build
func SharedEnv() (*Env, error) {
	sharedOnce.Do(func() { sharedEnv, sharedErr = BuildEnv() })
	return sharedEnv, sharedErr
}

// RunSpec describes one simulation: a workload under one manager config.
// It is the sweep engine's point type; the alias keeps the historical
// experiments API while the engine owns execution.
type RunSpec = sweep.RunSpec

// defaultEngine is the process-wide sweep engine. Sharing one engine (and
// therefore one result cache) across every experiment runner means
// overlapping grids — e.g. the relaxation sweep's zero-slack points and
// the energy-savings comparison — are simulated exactly once per process.
var defaultEngine = sweep.NewEngine()

// Engine returns the process-wide sweep engine the experiment runners
// execute on (commands use it to install emitters and report cache
// statistics).
func Engine() *sweep.Engine { return defaultEngine }

// ExecuteAll runs the specs on the shared engine's bounded worker pool and
// returns results in input order. Duplicate points are simulated once, and
// every failing point contributes to the aggregated error.
func ExecuteAll(specs []RunSpec) ([]*rmasim.Result, error) {
	return defaultEngine.ExecuteAll(specs, "")
}

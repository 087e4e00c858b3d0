package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"qosrma/internal/emit"
	"qosrma/internal/rmasim"
)

// Engine executes sweeps on a bounded worker pool backed by a shared
// memoizing cache. An engine is safe for concurrent use; sharing one
// engine across sweeps is what lets overlapping grids (e.g. the
// relaxation sweep and the subset-relaxation study) reuse each other's
// points instead of re-simulating them.
type Engine struct {
	cache   *Cache
	workers int
	exec    func(RunSpec) (*rmasim.Result, error)
	emitMu  sync.Mutex
	emitter emit.Emitter[Row]
}

// NewEngine builds an engine with a fresh cache.
func NewEngine() *Engine {
	return &Engine{
		cache:   NewCache(),
		workers: runtime.GOMAXPROCS(0),
		exec:    Execute,
	}
}

// Cache exposes the engine's cache (for stats reporting).
func (e *Engine) Cache() *Cache { return e.cache }

// SetEmitter installs or replaces the streaming emitter (nil disables).
func (e *Engine) SetEmitter(em emit.Emitter[Row]) {
	e.emitMu.Lock()
	e.emitter = em
	e.emitMu.Unlock()
}

// Result is the outcome of one sweep: the compiled points and their
// simulation results, index-aligned in the deterministic compile order.
type Result struct {
	Name    string
	Points  []RunSpec
	Results []*rmasim.Result
}

// Select returns the results whose point matches the predicate, in point
// order. It is the convenience the experiment runners use to regroup a
// grid by one axis.
func (r *Result) Select(pred func(RunSpec) bool) []*rmasim.Result {
	var out []*rmasim.Result
	for i, p := range r.Points {
		if pred(p) {
			out = append(out, r.Results[i])
		}
	}
	return out
}

// Rows converts the sweep outcome to aggregated emitter rows.
func (r *Result) Rows() []Row {
	rows := make([]Row, len(r.Results))
	for i := range r.Results {
		rows[i] = makeRow(r.Name, i, r.Points[i], r.Results[i])
	}
	return rows
}

// Run compiles and executes the sweep. Results come back in the compile
// order regardless of completion order; every failing point contributes
// its error to the aggregate (errors.Join) rather than masking the rest.
func (e *Engine) Run(spec Spec) (*Result, error) {
	points, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	results, err := e.ExecuteAll(points, spec.Name)
	if err != nil {
		return nil, err
	}
	return &Result{Name: spec.Name, Points: points, Results: results}, nil
}

// ExecuteAll runs the specs on the worker pool and returns results in
// input order. Identical points (same content hash) are simulated once;
// the rest are served from the cache. All per-point errors are aggregated
// into the returned error.
func (e *Engine) ExecuteAll(specs []RunSpec, name string) ([]*rmasim.Result, error) {
	results := make([]*rmasim.Result, len(specs))
	errs := make([]error, len(specs))
	done := make([]chan struct{}, len(specs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, spec RunSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			defer close(done[i])
			results[i], errs[i] = e.cache.do(spec.Key(), func() (*rmasim.Result, error) {
				return e.exec(spec)
			})
		}(i, spec)
	}

	// Stream rows in deterministic point order as completions reach the
	// frontier, while later points still execute. The lock spans the whole
	// loop so concurrent sweeps sharing one engine cannot interleave their
	// rows inside the emitter.
	var emitErr error
	e.emitMu.Lock()
	if e.emitter != nil {
		for i := range specs {
			<-done[i]
			if errs[i] != nil || emitErr != nil {
				continue
			}
			emitErr = e.emitter.Emit(makeRow(name, i, specs[i], results[i]))
		}
	}
	e.emitMu.Unlock()
	wg.Wait()

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("sweep point %d (%s): %w", i, specs[i].Mix.Name, err))
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	if emitErr != nil {
		return nil, fmt.Errorf("sweep emit: %w", emitErr)
	}
	return results, nil
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qosrma/internal/core"
	"qosrma/internal/emit"
	"qosrma/internal/sweep"
	"qosrma/internal/workload"
)

// SweepRequest is the wire form of POST /v1/sweep: a declarative scenario
// grid mirroring the public SweepSpec (the cartesian product of every
// non-empty axis in the engine's fixed order). The job executes
// asynchronously on the server's sweep engine, so overlapping grids share
// the engine's single-flight result cache and a point is never simulated
// twice per server.
type SweepRequest struct {
	Name string `json:"name,omitempty"`
	// Workloads are bare app lists, one benchmark per core.
	Workloads [][]string `json:"workloads"`
	// Schemes are wire scheme names (static, dvfs, rm1, rm2, rm3, ucp).
	Schemes []string `json:"schemes"`
	// Models are predictor numbers 1..3 (default {2}).
	Models           []int       `json:"models,omitempty"`
	Slacks           []float64   `json:"slacks,omitempty"`
	SlackVectors     [][]float64 `json:"slack_vectors,omitempty"`
	Oracle           []bool      `json:"oracle,omitempty"`
	BaselineFreqsGHz []float64   `json:"baseline_freqs_ghz,omitempty"`
	SwitchScales     []float64   `json:"switch_scales,omitempty"`
	BandwidthGBps    []float64   `json:"bandwidth_gbps,omitempty"`
	Feedback         []bool      `json:"feedback,omitempty"`
}

// SweepJobStatus is the wire form of a sweep job's state.
type SweepJobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"` // running | done | failed
	Points int    `json:"points"`
	Error  string `json:"error,omitempty"`
	// ElapsedSec is the run time so far (running) or total (done/failed).
	ElapsedSec float64 `json:"elapsed_sec"`
}

// sweepJob is one asynchronous sweep.
type sweepJob struct {
	id     string
	points int

	mu       sync.Mutex
	state    string
	err      error
	res      *sweep.Result
	started  time.Time
	finished time.Time
}

func (j *sweepJob) status() SweepJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepJobStatus{ID: j.id, State: j.state, Points: j.points}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	end := j.finished
	if j.state == "running" {
		end = time.Now()
	}
	st.ElapsedSec = end.Sub(j.started).Seconds()
	return st
}

// jobTable tracks the server's sweep jobs, bounded so a long-running
// daemon cannot be grown without limit through POST /v1/sweep: at the
// cap, the oldest finished job (and its retained result rows) is
// evicted; if every slot is still running, the submit is refused.
type jobTable struct {
	mu    sync.Mutex
	next  int
	max   int
	order []string // creation order, for eviction
	jobs  map[string]*sweepJob
}

func newJobTable(max int) *jobTable {
	return &jobTable{max: max, jobs: make(map[string]*sweepJob)}
}

// errJobsBusy is the submit answer when every retained job is running.
var errJobsBusy = errors.New("service: all sweep job slots are busy; retry later")

func (t *jobTable) create(points int) (*sweepJob, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.jobs) >= t.max {
		evicted := false
		for i, id := range t.order {
			j := t.jobs[id]
			j.mu.Lock()
			done := j.state != "running"
			j.mu.Unlock()
			if done {
				delete(t.jobs, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return nil, errJobsBusy
		}
	}
	t.next++
	j := &sweepJob{
		id:      "job-" + strconv.Itoa(t.next),
		points:  points,
		state:   "running",
		started: time.Now(),
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	return j, nil
}

func (t *jobTable) get(id string) *sweepJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

func (t *jobTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// stateCounts tallies retained jobs by state, for the sweep_jobs{state}
// gauges.
func (t *jobTable) stateCounts() (running, done, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.jobs {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case "running":
			running++
		case "done":
			done++
		case "failed":
			failed++
		}
	}
	return running, done, failed
}

// compileSweep validates the request against the snapshot's database and
// builds the engine spec plus its compiled points. The spec captures the
// snapshot's database, so a job started before a hot-swap completes on
// the database it was submitted against (the engine's result cache keys
// include the database shape, so swapped results never alias).
func compileSweep(sn *snapshot, req *SweepRequest) (sweep.Spec, []sweep.RunSpec, error) {
	var spec sweep.Spec
	db := sn.db
	n := db.Sys.NumCores
	if len(req.Workloads) == 0 {
		return spec, nil, fmt.Errorf("sweep needs at least one workload")
	}
	for i, apps := range req.Workloads {
		if len(apps) != n {
			return spec, nil, fmt.Errorf("workload %d needs %d apps, got %d", i, n, len(apps))
		}
		for _, app := range apps {
			if _, ok := db.BenchIDOf(app); !ok {
				return spec, nil, fmt.Errorf("workload %d: unknown benchmark %q", i, app)
			}
		}
		spec.Mixes = append(spec.Mixes, workload.Mix{
			Name: fmt.Sprintf("workload%02d", i),
			Apps: append([]string(nil), apps...),
		})
	}
	if len(req.Schemes) == 0 {
		return spec, nil, fmt.Errorf("sweep needs at least one scheme")
	}
	for _, name := range req.Schemes {
		scheme, err := core.ParseScheme(name)
		if err != nil {
			return spec, nil, err
		}
		spec.Schemes = append(spec.Schemes, scheme)
	}
	if len(req.Models) == 0 {
		spec.Models = []core.ModelKind{core.Model2}
	}
	for _, m := range req.Models {
		if m < 1 || m > 3 {
			return spec, nil, fmt.Errorf("unknown model %d (want 1, 2 or 3)", m)
		}
		kind, _ := parseModel(m, 0)
		spec.Models = append(spec.Models, kind)
	}
	for _, f := range req.BaselineFreqsGHz {
		spec.BaselineFreqIdxs = append(spec.BaselineFreqIdxs, db.Sys.DVFS.ClosestIndex(f))
	}
	for i, v := range req.Slacks {
		if v < 0 {
			return spec, nil, fmt.Errorf("slacks[%d] = %g is negative", i, v)
		}
	}
	for i, vec := range req.SlackVectors {
		if len(vec) != n {
			return spec, nil, fmt.Errorf("slack_vectors[%d] needs %d entries, got %d", i, n, len(vec))
		}
		for j, v := range vec {
			if v < 0 {
				return spec, nil, fmt.Errorf("slack_vectors[%d][%d] = %g is negative", i, j, v)
			}
		}
	}
	spec.Name = req.Name
	spec.DB = db
	spec.Slacks = req.Slacks
	spec.SlackVectors = req.SlackVectors
	spec.Oracle = req.Oracle
	spec.SwitchScales = req.SwitchScales
	spec.BandwidthGBps = req.BandwidthGBps
	spec.Feedback = req.Feedback
	points, err := spec.Compile()
	if err != nil {
		return spec, nil, err
	}
	return spec, points, nil
}

// handleSweepSubmit is POST /v1/sweep: validate, register a job, execute
// asynchronously, answer 202 with the job id.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	// Fast-path drain refusal; the authoritative, race-free check happens
	// again under jobMu below.
	if s.draining.Load() {
		writeUnavailable(w, errDraining)
		return
	}
	sn := s.snap.Load()
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	spec, points, err := compileSweep(sn, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Registration and the draining flag are serialized under jobMu, so
	// once Shutdown observes the flag set no further job can join the
	// WaitGroup it is about to wait on.
	s.jobMu.Lock()
	if s.draining.Load() {
		s.jobMu.Unlock()
		writeUnavailable(w, errDraining)
		return
	}
	job, err := s.jobs.create(len(points))
	if err != nil {
		s.jobMu.Unlock()
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	s.jobWG.Add(1)
	s.jobMu.Unlock()
	go func() {
		defer s.jobWG.Done()
		// One sweep executes at a time per server: the engine's worker
		// pool already saturates the cores, so serializing jobs bounds
		// memory and keeps decide latency steady under sweep load. The
		// recover is a second line of defense for this goroutine's own
		// panics — compileSweep's validation is what keeps bad grid
		// parameters out of the engine's pool goroutines, which no
		// recover here could reach.
		s.jobSem <- struct{}{}
		defer func() { <-s.jobSem }()
		defer func() {
			if r := recover(); r != nil {
				job.mu.Lock()
				defer job.mu.Unlock()
				job.finished = time.Now()
				job.state, job.err = "failed", fmt.Errorf("sweep panicked: %v", r)
			}
		}()
		results, err := s.engine.ExecuteAll(points, spec.Name)
		job.mu.Lock()
		defer job.mu.Unlock()
		job.finished = time.Now()
		if err != nil {
			job.state, job.err = "failed", err
			return
		}
		job.state = "done"
		job.res = &sweep.Result{Name: spec.Name, Points: points, Results: results}
	}()
	writeJSON(w, http.StatusAccepted, job.status())
}

// handleSweepStatus is GET /v1/sweep/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such sweep job"))
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

// handleSweepResult is GET /v1/sweep/{id}/result?format=csv|json: streams
// the completed job's rows in deterministic grid order.
func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such sweep job"))
		return
	}
	job.mu.Lock()
	state, res, jobErr := job.state, job.res, job.err
	job.mu.Unlock()
	switch state {
	case "running":
		writeError(w, http.StatusConflict, fmt.Errorf("sweep job still running"))
		return
	case "failed":
		writeError(w, http.StatusInternalServerError, fmt.Errorf("sweep job failed: %w", jobErr))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	f, err := emit.Parse(format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	emit.Write(format, w, res.Rows()) //nolint:errcheck // client gone mid-stream
}

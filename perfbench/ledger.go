package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"qosrma"
	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/route"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/simpoint"
	"qosrma/internal/trace"
	"qosrma/internal/wire"
)

// The traced pass measures every workload's layers from outside the
// program and prints them as one ledger: per workload, the end-to-end mean
// (taken with tracing off), each layer's part of it, and the unattributed
// remainder. Layer numbers come from timed calls into each layer's public
// functions, /metrics deltas over a traced phase, and /proc.

// tracedDur is the length of each traced-pass phase.
func (r *runner) tracedDur() time.Duration {
	if r.opt.smoke {
		return 300 * time.Millisecond
	}
	return time.Duration(min(2.5, max(0.5, r.opt.seconds/4)) * float64(time.Second))
}

// ledgerLine is one printed ledger entry: a layer's part of a workload's
// end-to-end mean.
type ledgerLine struct {
	workload, layer string
	value, total    float64
	unit            string
}

func (r *runner) tracedPass() (metrics, error) {
	m := metrics{}
	var lines []ledgerLine
	steps := []func() ([]ledgerLine, error){
		func() ([]ledgerLine, error) { return r.traceBuild(m) },
		func() ([]ledgerLine, error) { return r.traceDirect(m, servingSpecs["wire-hot"]) },
		func() ([]ledgerLine, error) { return r.traceDirect(m, servingSpecs["json-cold"]) },
		func() ([]ledgerLine, error) { return r.traceTier(m) },
		func() ([]ledgerLine, error) { return r.traceFleetPass(m) },
	}
	for _, step := range steps {
		ls, err := step()
		if err != nil {
			return nil, err
		}
		lines = append(lines, ls...)
	}
	for _, l := range lines {
		fmt.Printf("ledger %-10s %-28s %12.4f %-3s share=%6.2f%%\n", l.workload, l.layer, l.value, l.unit, 100*l.value/l.total)
	}
	return m, nil
}

// ---- build side ----

// buildStages is the build-side report of a fresh single-threaded process.
type buildStages struct {
	SuiteS, BuildS, AnalyzeS, ProfileS, CompileS, FingerprintS float64
}

// buildStagesMain times the database build in a fresh process with one
// thread, so the stages add up: trace.Suite, a cold single-worker
// simdb.Build and Fingerprint, then each stage again through its public,
// uncached function.
func buildStagesMain([]string) int {
	runtime.GOMAXPROCS(1)
	var bs buildStages
	t := time.Now()
	suite := trace.Suite()
	bs.SuiteS = since(t)

	sys := arch.DefaultSystemConfig(4)
	opt := simdb.DefaultBuildOptions()
	opt.Workers = 1
	t = time.Now()
	db, err := simdb.Build(sys, suite, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buildstages: %v\n", err)
		return 1
	}
	bs.BuildS = since(t)
	t = time.Now()
	_ = db.Fingerprint()
	bs.FingerprintS = since(t)

	t = time.Now()
	analyses := make([]*simpoint.Analysis, len(suite))
	for i, b := range suite {
		analyses[i] = simpoint.Analyze(b, opt.SimPoint)
	}
	bs.AnalyzeS = since(t)
	t = time.Now()
	for i, b := range suite {
		for p := 0; p < analyses[i].NumPhases; p++ {
			simdb.SimulatePhase(sys, b, analyses[i], p, opt.Sample)
		}
	}
	bs.ProfileS = since(t)
	t = time.Now()
	db.Recompiled(db.Sys)
	bs.CompileS = since(t)

	b, err := json.Marshal(bs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buildstages: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func (r *runner) traceBuild(m metrics) ([]ledgerLine, error) {
	c, err := r.procs.startTask("buildstages", filepath.Join(r.opt.binDir, "perfbench"), "buildstages")
	if err != nil {
		return nil, err
	}
	if err := r.procs.wait(c, 170*time.Second); err != nil {
		return nil, err
	}
	var bs buildStages
	if err := json.Unmarshal([]byte(strings.TrimSpace(c.output())), &bs); err != nil {
		return nil, fmt.Errorf("buildstages report: %v", err)
	}
	r.attempted++
	total := bs.SuiteS + bs.BuildS + bs.FingerprintS
	unattr := total - bs.SuiteS - bs.AnalyzeS - bs.ProfileS - bs.CompileS - bs.FingerprintS
	m.set("trace.suite_s", bs.SuiteS, "s")
	m.set("simpoint.analyze_s", bs.AnalyzeS, "s")
	m.set("simdb.profile_s", bs.ProfileS, "s")
	m.set("simdb.compile_s", bs.CompileS, "s")
	m.set("simdb.fingerprint_s", bs.FingerprintS, "s")
	m.set("build.unattributed_s", unattr, "s")
	w := "build"
	return []ledgerLine{
		{w, "trace.suite", bs.SuiteS, total, "s"},
		{w, "simpoint.analyze", bs.AnalyzeS, total, "s"},
		{w, "simdb.profile", bs.ProfileS, total, "s"},
		{w, "simdb.compile", bs.CompileS, total, "s"},
		{w, "simdb.fingerprint", bs.FingerprintS, total, "s"},
		{w, "unattributed", unattr, total, "s"},
	}, nil
}

// ---- serving ----

// scrape reads a /metrics exposition, summing each series over its labels.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// probe is a process's counters and CPU time at one instant.
type probe struct {
	counters map[string]float64
	cpu      float64
}

func takeProbe(c *child, addr string) (probe, error) {
	counters, err := scrape(addr)
	if err != nil {
		return probe{}, err
	}
	cpu, err := cpuSeconds(c.cmd.Process.Pid)
	return probe{counters: counters, cpu: cpu}, err
}

func (p probe) delta(q probe, name string) float64 { return q.counters[name] - p.counters[name] }

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPhase runs an untraced and then a traced phase on one generator,
// probing the given processes around the traced one.
type tracedPhase struct {
	untraced, traced *phaseResult
	before, after    []probe
	checks           checkResult
}

func (r *runner) runTraced(g *generator, procs []*child, addrs []string) (*tracedPhase, error) {
	tp := &tracedPhase{untraced: g.phase(r.tracedDur(), nil)}
	for i, c := range procs {
		p, err := takeProbe(c, addrs[i])
		if err != nil {
			return nil, err
		}
		tp.before = append(tp.before, p)
	}
	sample := g.sample()
	tp.traced = g.phase(r.tracedDur(), sample)
	for i, c := range procs {
		p, err := takeProbe(c, addrs[i])
		if err != nil {
			return nil, err
		}
		tp.after = append(tp.after, p)
	}
	tp.checks = g.check(tp.traced, sample)
	return tp, nil
}

// serviceLayers records the backend's service metrics over the traced
// phase and returns its mean decide time in µs.
func serviceLayers(m metrics, w string, tp *tracedPhase, b0, b1 probe) float64 {
	q := float64(tp.traced.queries)
	decideMean := 1e6 * ratio(b0.delta(b1, "qosrmad_decide_request_seconds_sum"), b0.delta(b1, "qosrmad_decide_request_seconds_count"))
	m.set(w+".service.cpu_us_per_query", 1e6*ratio(b1.cpu-b0.cpu, q), "us")
	m.set(w+".service.decide_mean_us", decideMean, "us")
	m.set(w+".service.cache_hit_ratio", ratio(b0.delta(b1, "qosrmad_decide_cache_hits_total"), b0.delta(b1, "qosrmad_decide_queries_total")), "ratio")
	m.set(w+".service.admission_reject_ratio", ratio(b0.delta(b1, "qosrmad_decide_admission_rejected_total"), b0.delta(b1, "qosrmad_decide_cache_misses_total")), "ratio")
	m.set(w+".service.queries_per_wakeup", ratio(b0.delta(b1, "qosrmad_decide_queries_total"), b0.delta(b1, "qosrmad_decide_batches_total")), "count")
	m.set(w+".client.cpu_us_per_query", 1e6*ratio(tp.traced.cpu, q), "us")
	return decideMean
}

// traceDirect is the ledger of a workload sent straight to one qosrmad.
func (r *runner) traceDirect(m metrics, spec servingSpec) ([]ledgerLine, error) {
	sys, err := r.reference()
	if err != nil {
		return nil, err
	}
	st, _, err := r.startStack(false)
	if err != nil {
		return nil, err
	}
	defer r.stopStack(st)
	g, err := r.openGen(sys, st, spec, false)
	if err != nil {
		return nil, err
	}
	defer g.close()
	tp, err := r.runTraced(g, []*child{st.backend}, []string{st.backendHTTP})
	if err != nil {
		return nil, err
	}
	w := spec.name
	decide := serviceLayers(m, w, tp, tp.before[0], tp.after[0])
	codec, codecLine, err := r.codecLayers(m, sys, g, tp)
	if err != nil {
		return nil, err
	}
	m.set(w+".core.decide_all_us", r.decideAllUS(sys.DB(), g.pop), "us")
	return servingLedger(m, w, tp, []ledgerLine{
		{w, "service.decide_mean", decide, 0, "us"},
		codecLine,
	}, decide+codec), nil
}

// servingLedger closes a serving workload's ledger: the end-to-end mean
// batch latency from the untraced phase, the unattributed remainder, the
// client's outside time and the tracing overhead.
func servingLedger(m metrics, w string, tp *tracedPhase, lines []ledgerLine, attributed float64) []ledgerLine {
	e2e := tp.untraced.meanLat() * 1e6
	decide := m[w+".service.decide_mean_us"].Value
	m.set(w+".batch_mean_us", e2e, "us")
	m.set(w+".client.outside_us", e2e-decide, "us")
	m.set(w+".unattributed_us", e2e-attributed, "us")
	m.set(w+".tracing_overhead_us", tp.traced.meanLat()*1e6-e2e, "us")
	lines = append(lines, ledgerLine{w, "unattributed", e2e - attributed, 0, "us"})
	for i := range lines {
		lines[i].total = e2e
	}
	fmt.Printf("%s traced: batch_mean_us=%.2f untraced, %.2f traced; checked=%d\n",
		w, e2e, tp.traced.meanLat()*1e6, tp.checks.checked)
	return lines
}

// codecLayers times the workload's codec in-process on its own requests:
// the server-side wire parse and encode per frame, or the JSON handler
// (ServeHTTP on a warm in-process server) minus its own decide time.
func (r *runner) codecLayers(m metrics, sys *qosrma.System, g *generator, tp *tracedPhase) (float64, ledgerLine, error) {
	w := g.spec.name
	if g.spec.codec == "wire" {
		parse, appendNS, err := wireCodecNS(g, tp.traced)
		if err != nil {
			return 0, ledgerLine{}, err
		}
		m.set(w+".wire.parse_request_ns", parse, "ns")
		m.set(w+".wire.append_response_ns", appendNS, "ns")
		us := (parse + appendNS) / 1e3
		return us, ledgerLine{w, "wire.codec", us, 0, "us"}, nil
	}
	serve, decide, err := serveHTTPUS(sys, g)
	if err != nil {
		return 0, ledgerLine{}, err
	}
	m.set(w+".service.serve_http_us", serve, "us")
	m.set(w+".json.codec_us", serve-decide, "us")
	return serve - decide, ledgerLine{w, "json.codec", serve - decide, 0, "us"}, nil
}

// timeLoop calls f repeatedly for at least d and returns the mean time
// per call in ns.
func timeLoop(d time.Duration, f func()) float64 {
	n := 0
	t := time.Now()
	for time.Since(t) < d {
		for i := 0; i < 64; i++ {
			f()
		}
		n += 64
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// replayDur bounds each in-process replay.
func (r *runner) replayDur() time.Duration {
	if r.opt.smoke {
		return 20 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// wireCodecNS replays the generator's frames through wire.ParseDecideRequest
// and one of its answers through wire.AppendDecideResponse.
func wireCodecNS(g *generator, ph *phaseResult) (parse, appendNS float64, err error) {
	var req wire.DecideRequest
	for _, f := range g.frames {
		if err := wire.ParseDecideRequest(f[wire.HeaderSize:], &req); err != nil {
			return 0, 0, err
		}
	}
	i := 0
	parse = timeLoop(g.r.replayDur(), func() {
		_ = wire.ParseDecideRequest(g.frames[i%len(g.frames)][wire.HeaderSize:], &req)
		i++
	})
	var a *answer
	for _, v := range ph.answers {
		a = v
		break
	}
	if a == nil || len(a.decided) != batchSize {
		return 0, 0, fmt.Errorf("no answer to replay")
	}
	resp := wire.DecideResponse{NCores: uint8(g.pop.n), Decided: a.decided}
	for _, s := range a.settings {
		resp.Settings = append(resp.Settings, wire.Setting{Size: uint8(s.Size), Freq: uint8(s.FreqIdx), Ways: uint8(s.Ways)})
	}
	buf := make([]byte, 0, 4096)
	appendNS = timeLoop(g.r.replayDur(), func() { buf = wire.AppendDecideResponse(buf[:0], &resp) })
	return parse, appendNS, nil
}

// serveHTTPUS drives an in-process Server's ServeHTTP with the generator's
// own request bodies and returns the mean handler time and the mean
// decide time its own /metrics report, both in µs per batch.
func serveHTTPUS(sys *qosrma.System, g *generator) (serve, decide float64, err error) {
	srv := sys.NewServer(qosrma.ServeSpec{})
	defer srv.Close()
	call := func(w int) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(g.bodies[w])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process decide: status %d", rec.Code)
		}
		return nil
	}
	nw := g.pop.windows()
	if g.spec.hot {
		for pass := 0; pass < 3; pass++ {
			for w := 0; w < nw; w++ {
				if err := call(w); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	inproc := func() map[string]float64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		out := map[string]float64{}
		for _, l := range strings.Split(rec.Body.String(), "\n") {
			if f := strings.Fields(l); len(f) == 2 {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					out[f[0]] = v
				}
			}
		}
		return out
	}
	m0 := inproc()
	n := 0
	t := time.Now()
	for w := 0; time.Since(t) < g.r.replayDur(); w++ {
		if err := call(w % nw); err != nil {
			return 0, 0, err
		}
		n++
	}
	serve = since(t) * 1e6 / float64(n)
	m1 := inproc()
	const h = "qosrmad_decide_request_seconds"
	decide = 1e6 * ratio(m1[h+"_sum"]-m0[h+"_sum"], m1[h+"_count"]-m0[h+"_count"])
	return serve, decide, nil
}

// decideAllUS replays the population through one manager's DecideAll on
// oracle statistics, single-threaded, and returns µs per query.
func (r *runner) decideAllUS(db *simdb.DB, pop population) float64 {
	n := pop.n
	mgr := core.NewManager(managerConfig(db))
	st := make([]core.IntervalStats, n)
	ptrs := make([]*core.IntervalStats, n)
	q := 0
	ns := timeLoop(r.replayDur(), func() {
		apps := pop.apps[(q%pop.size)*n : (q%pop.size+1)*n]
		for i, a := range apps {
			service.FillOracleStats(db, simdb.BenchID(a.Bench), int(a.Phase), i, &st[i])
			ptrs[i] = &st[i]
		}
		mgr.DecideAll(ptrs)
		q++
	})
	return ns / 1e3
}

// ---- routing tier ----

// traceTier is the ledger of both tier workloads on one tier stack, plus
// a bypass pass of each sent straight to the backend.
func (r *runner) traceTier(m metrics) ([]ledgerLine, error) {
	sys, err := r.reference()
	if err != nil {
		return nil, err
	}
	st, _, err := r.startStack(true)
	if err != nil {
		return nil, err
	}
	defer r.stopStack(st)
	procs := []*child{st.backend, st.tier}
	addrs := []string{st.backendHTTP, st.httpAddr}
	var (
		lines  []ledgerLine
		wasted = map[string]float64{}
	)
	for _, spec := range []servingSpec{servingSpecs["tier-wire"], servingSpecs["tier-json"]} {
		w := spec.name
		g, err := r.openGen(sys, st, spec, false)
		if err != nil {
			return nil, err
		}
		tp, err := r.runTraced(g, procs, addrs)
		g.close()
		if err != nil {
			return nil, err
		}
		// The bypass: the same population and codec straight to the backend.
		by, err := r.openGen(sys, st, spec, true)
		if err != nil {
			return nil, err
		}
		bypass := by.phase(r.tracedDur(), nil)
		by.close()

		decide := serviceLayers(m, w, tp, tp.before[0], tp.after[0])
		t0, t1 := tp.before[1], tp.after[1]
		reqs, splits := "qosrmad_route_requests_total", "qosrmad_route_splits_total"
		if spec.codec == "wire" {
			reqs, splits = "qosrmad_route_wire_requests_total", "qosrmad_route_wire_splits_total"
		}
		overhead := (quantile(tp.untraced.lats, 0.5) - quantile(bypass.lats, 0.5)) * 1e6
		m.set(w+".route.cpu_us_per_query", 1e6*ratio(t1.cpu-t0.cpu, float64(tp.traced.queries)), "us")
		m.set(w+".route.splits_per_request", ratio(t0.delta(t1, splits), t0.delta(t1, reqs)), "ratio")
		m.set(w+".route.overhead_us", overhead, "us")
		for _, k := range []string{"retries", "attempt_failures", "exhausted"} {
			wasted[k] += t0.delta(t1, "qosrmad_route_"+k+"_total") + t0.delta(t1, "qosrmad_route_wire_"+k+"_total")
		}
		wasted["spills"] += t0.delta(t1, "qosrmad_route_spills_total")

		codec, codecLine, err := r.codecLayers(m, sys, g, tp)
		if err != nil {
			return nil, err
		}
		m.set(w+".core.decide_all_us", r.decideAllUS(sys.DB(), g.pop), "us")
		lines = append(lines, servingLedger(m, w, tp, []ledgerLine{
			{w, "service.decide_mean", decide, 0, "us"},
			codecLine,
			{w, "route.overhead", overhead, 0, "us"},
		}, decide+codec+overhead)...)
	}
	for k, v := range wasted {
		m.set("route."+k, v, "count")
	}
	pick, err := r.keyPickNS(sys.DB(), st)
	if err != nil {
		return nil, err
	}
	m.set("route.key_pick_ns", pick, "ns")
	return lines, nil
}

// keyPickNS times route.RoutingKey plus Ring.Pick per query over the tier
// population, on the tier's own two-group ring.
func (r *runner) keyPickNS(db *simdb.DB, st *stack) (float64, error) {
	replica := st.backendHTTP + "|" + st.backendWir
	groups, err := route.ParseGroups(replica + ";" + replica)
	if err != nil {
		return 0, err
	}
	ring, err := route.New(groups, 0)
	if err != nil {
		return 0, err
	}
	pop := drawPopulation(db, r.opt.seed, "tier-json", servingSpecs["tier-json"].population)
	qs := make([]service.DecideQuery, pop.size)
	for i := range qs {
		qs[i] = service.DecideQuery{Scheme: "rm2", Slack: slack}
		for _, a := range pop.apps[i*pop.n : (i+1)*pop.n] {
			qs[i].Apps = append(qs[i].Apps, service.AppQuery{Bench: db.BenchName(simdb.BenchID(a.Bench)), Phase: int(a.Phase)})
		}
	}
	key := make([]byte, 0, 128)
	i, sink := 0, 0
	ns := timeLoop(r.replayDur(), func() {
		key = route.RoutingKey(key[:0], &qs[i%len(qs)])
		sink += ring.Pick(key)
		i++
	})
	_ = sink
	return ns, nil
}

// ---- fleet ----

func (r *runner) traceFleetPass(m metrics) ([]ledgerLine, error) {
	rep, _, err := r.fleetRun("-trace")
	if err != nil {
		return nil, err
	}
	if err := r.checkFleet(rep); err != nil {
		return nil, err
	}
	tr := rep.Trace
	if tr == nil {
		return nil, fmt.Errorf("fleet process returned no trace")
	}
	runS := rep.RunS[0]
	scoredExtra := tr.ScoredS - tr.FirstFitS
	eqExtra := tr.EquilibriumS - tr.ScoredS
	// The policy differences sum to the traced equilibrium pass by
	// construction, so the remainder is the untraced pass minus its traced
	// rerun: how far two runs of the same pass differ, not time in a layer
	// nobody measured.
	unattr := runS - tr.FirstFitS - scoredExtra - eqExtra
	m.set("fleet-eq.fleet_run_s", runS, "s")
	m.set("cluster.firstfit_s", tr.FirstFitS, "s")
	m.set("sched.scored_extra_s", scoredExtra, "s")
	m.set("equilibrium.extra_s", eqExtra, "s")
	m.set("fleet-eq.unattributed_s", unattr, "s")
	m.set("rmasim.invocations", float64(rep.Invocations), "count")
	m.set("rmasim.host_us_per_invocation", 1e6*ratio(tr.FirstFitS, float64(tr.FirstFitInvoc)), "us")
	m.set("equilibrium.solve_ms", tr.SolveMS, "ms")
	m.set("equilibrium.rounds", tr.SolveRounds, "count")
	m.set("equilibrium.games", float64(tr.Games), "count")
	m.set("equilibrium.certified", float64(tr.Certified), "count")
	fmt.Printf("fleet-eq replayed %d placement games of the first trace: %d certified; of those, %d put the arrival on a full machine (scored fallback) and %d where the engine placed it\n",
		tr.Games, tr.Certified, tr.NoFreeCore, tr.Agree)
	m.set("sched.score_us_cold", tr.ScoreColdUS, "us")
	m.set("sched.score_us_warm", tr.ScoreWarmUS, "us")
	m.set("cluster.qos_violations", float64(rep.Violations), "count")
	m.set("cluster.interval_violations", float64(rep.IntervalViol), "count")
	w := "fleet-eq"
	return []ledgerLine{
		{w, "cluster+rmasim (first-fit)", tr.FirstFitS, runS, "s"},
		{w, "sched (scored extra)", scoredExtra, runS, "s"},
		{w, "equilibrium (extra)", eqExtra, runS, "s"},
		{w, "unattributed (rerun delta)", unattr, runS, "s"},
	}, nil
}

// sortedKeys lists a metrics map's names in order.
func sortedKeys(m metrics) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// JSON decide path: POST /v1/decide is one pass of decode → resolve →
// shard → encode over pooled per-request scratch.
//
// Decode reads the body into a pooled buffer and runs a scanner for the
// one DecideRequest shape: exact lowercase keys, each at most once per
// object; strings of printable ASCII without escapes; integers without
// fraction or exponent; null field values (which leave the field unset).
// Within that subset it produces exactly what encoding/json produces;
// every other body — case-folded keys, escapes, duplicate keys, null
// elements, 1.0 for an integer, syntax errors — goes to
// json.NewDecoder unchanged, so accepted bodies and error texts stay
// byte-for-byte the same. Like Decoder.Decode, the scanner ignores bytes
// after the first value.
//
// Resolve runs through the resolver the wire path uses: bench names are
// looked up straight from the body bytes and the manager configuration is
// memoized across consecutive queries. Encode appends each setting as its
// snapshot's pre-rendered prefix plus the way count, producing the bytes
// json.Encoder would.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"qosrma/internal/simdb"
)

// span is a half-open range of a jsonScratch arena.
type span struct{ lo, hi int }

// jsonApp is one decoded co-phase element. bench aliases the request
// body (or, for bodies encoding/json decoded, a copy of the name).
type jsonApp struct {
	bench []byte
	phase int
}

// jsonQuery is one decoded DecideQuery; its slacks and apps live in the
// scratch arenas.
type jsonQuery struct {
	scheme []byte
	model  int
	slack  float64
	slacks span
	apps   span
}

// jsonScratch is one /v1/decide request's reusable state, recycled
// through jsonScratchPool.
//
//qosrma:shardowned
type jsonScratch struct {
	body    bytes.Buffer
	top     jsonQuery   // the top-level (single) query
	queries []jsonQuery // the batch, in order
	apps    []jsonApp
	floats  []float64
	out     []byte
	resolver
}

var jsonScratchPool = sync.Pool{New: func() any { return new(jsonScratch) }}

// maxPooledBody is the largest body buffer a scratch keeps when it goes
// back to the pool, so one huge request does not pin its memory.
const maxPooledBody = 1 << 20

// handleDecide is POST /v1/decide.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if !s.gate.TryAcquire() {
		writeUnavailable(w, errOverloaded)
		return
	}
	defer s.gate.Release()
	sn := s.snap.Load()
	sc := jsonScratchPool.Get().(*jsonScratch)
	defer func() {
		if sc.body.Cap() <= maxPooledBody {
			jsonScratchPool.Put(sc)
		}
	}()

	sc.body.Reset()
	_, readErr := sc.body.ReadFrom(r.Body)
	body := sc.body.Bytes()
	if readErr != nil || !sc.scan(body) {
		// The reference decoder sees the same bytes, then the read error
		// (if any) exactly where the body stream raised it.
		src := io.Reader(bytes.NewReader(body))
		if readErr != nil {
			src = io.MultiReader(src, errReader{readErr})
		}
		var req DecideRequest
		if err := json.NewDecoder(src).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		sc.load(&req)
	}
	single := len(sc.queries) == 0
	if err := s.resolveJSON(sn, sc); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.draining.Load() {
		writeUnavailable(w, errDraining)
		return
	}
	if err := s.decideInto(sn, &sc.fan); err != nil {
		writeUnavailable(w, err)
		return
	}
	sc.out = sn.appendDecideJSON(sc.out[:0], sc.fan.results, single)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out) //nolint:errcheck // client gone; nothing to report to
}

// errReader replays a body read error to the reference decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// load fills the scratch from a request encoding/json decoded.
func (sc *jsonScratch) load(req *DecideRequest) {
	sc.reset()
	sc.top = sc.loadQuery(&req.DecideQuery)
	for i := range req.Queries {
		sc.queries = append(sc.queries, sc.loadQuery(&req.Queries[i]))
	}
}

func (sc *jsonScratch) loadQuery(q *DecideQuery) jsonQuery {
	jq := jsonQuery{scheme: []byte(q.Scheme), model: q.Model, slack: q.Slack}
	jq.slacks.lo = len(sc.floats)
	sc.floats = append(sc.floats, q.Slacks...)
	jq.slacks.hi = len(sc.floats)
	jq.apps.lo = len(sc.apps)
	for _, a := range q.Apps {
		sc.apps = append(sc.apps, jsonApp{bench: []byte(a.Bench), phase: a.Phase})
	}
	jq.apps.hi = len(sc.apps)
	return jq
}

func (sc *jsonScratch) reset() {
	sc.top = jsonQuery{}
	sc.queries = sc.queries[:0]
	sc.apps = sc.apps[:0]
	sc.floats = sc.floats[:0]
}

// resolveJSON validates the decoded request against the snapshot and
// fills the resolver, with the checks, their order and their error texts
// of the per-query resolution the JSON API has always had. A request
// without a batch is the single top-level query.
//
//qosrma:noalloc
func (s *Server) resolveJSON(sn *snapshot, sc *jsonScratch) error {
	if len(sc.queries) == 0 {
		sc.queries = append(sc.queries, sc.top)
	}
	qs := sc.queries
	if len(qs) > s.opt.MaxBatch {
		return fmt.Errorf("batch of %d queries exceeds the limit of %d", len(qs), s.opt.MaxBatch)
	}
	n := sn.db.Sys.NumCores
	sc.prepare(len(qs), len(sc.apps), len(qs)*n)
	for qi := range qs {
		if err := sc.resolveOne(sn.db, qi, &qs[qi]); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
	}
	return nil
}

// resolveOne resolves query qi of the request.
//
//qosrma:noalloc
func (sc *jsonScratch) resolveOne(db *simdb.DB, qi int, jq *jsonQuery) error {
	n := db.Sys.NumCores
	apps := sc.apps[jq.apps.lo:jq.apps.hi]
	if len(apps) != n {
		return fmt.Errorf("co-phase vector needs %d apps (one per core), got %d", n, len(apps))
	}
	scheme, err := parseSchemeBytes(jq.scheme)
	if err != nil {
		return err
	}
	model, err := parseModel(jq.model, scheme)
	if err != nil {
		return err
	}
	rs := &sc.resolver
	var slack []float64
	switch slacks := sc.floats[jq.slacks.lo:jq.slacks.hi]; {
	case len(slacks) > 0:
		if len(slacks) != n {
			return fmt.Errorf("slacks needs %d entries, got %d", n, len(slacks))
		}
		slack = slacks
	case jq.slack != 0:
		slack = rs.slack[qi*n : (qi+1)*n]
		for i := range slack {
			slack[i] = jq.slack
		}
	}
	if err := checkSlack(slack); err != nil {
		return err
	}
	ids := rs.ids[jq.apps.lo:jq.apps.hi]
	phases := rs.phases[jq.apps.lo:jq.apps.hi]
	for i, app := range apps {
		id, ok := db.BenchIDOfBytes(app.bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", string(app.bench))
		}
		np := db.Benches[id].Analysis.NumPhases
		if app.phase < 0 || app.phase >= np {
			return fmt.Errorf("%s has phases 0..%d, got %d", string(app.bench), np-1, app.phase)
		}
		ids[i] = id
		phases[i] = app.phase
	}
	rs.config(scheme, model, slack)
	rs.set(qi, slack, ids, phases)
	return nil
}

// appendDecideJSON appends the /v1/decide response for results — the
// bytes json.Encoder renders for the equivalent DecideResponse, trailing
// newline included.
//
//qosrma:noalloc
func (sn *snapshot) appendDecideJSON(dst []byte, results []decideResult, single bool) []byte {
	if single {
		dst = append(dst, `{"result":`...)
	} else {
		dst = append(dst, `{"results":[`...)
	}
	nf := len(sn.db.Sys.DVFS)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if results[i].decided {
			dst = append(dst, `{"decided":true,"settings":[`...)
		} else {
			dst = append(dst, `{"decided":false,"settings":[`...)
		}
		for j, st := range results[i].settings {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, sn.settingJSON[int(st.Size)*nf+st.FreqIdx]...)
			dst = strconv.AppendInt(dst, int64(st.Ways), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	if !single {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// Object member bits, for rejecting duplicate keys.
const (
	keyScheme = 1 << iota
	keyModel
	keySlack
	keySlacks
	keyApps
	keyQueries
	keyBench
	keyPhase
)

// scan decodes body into the scratch, reporting false when the body lies
// outside the scanner's subset (see the file comment).
//
//qosrma:noalloc
func (sc *jsonScratch) scan(body []byte) bool {
	sc.reset()
	p := jsonScan{b: body}
	return p.eat('{') && sc.queryMembers(&p, &sc.top, true)
}

// queryMembers scans the members of a DecideQuery object whose '{' has
// been consumed; top admits the request-level "queries" member.
//
//qosrma:noalloc
func (sc *jsonScratch) queryMembers(p *jsonScan, q *jsonQuery, top bool) bool {
	seen := 0
	for first := true; ; first = false {
		key, done, ok := p.member(first)
		if !ok || done {
			return ok
		}
		var bit int
		//qosrma:allow(noalloc) a switch on a converted byte slice does not allocate
		switch string(key) {
		case "scheme":
			bit = keyScheme
		case "model":
			bit = keyModel
		case "slack":
			bit = keySlack
		case "slacks":
			bit = keySlacks
		case "apps":
			bit = keyApps
		case "queries":
			bit = keyQueries
		}
		if bit == 0 || seen&bit != 0 || (bit == keyQueries && !top) {
			return false
		}
		seen |= bit
		if p.null() {
			continue
		}
		switch bit {
		case keyScheme:
			q.scheme, ok = p.str()
		case keyModel:
			q.model, ok = p.integer()
		case keySlack:
			q.slack, ok = p.float()
		case keySlacks:
			q.slacks, ok = sc.scanSlacks(p)
		case keyApps:
			q.apps, ok = sc.scanApps(p)
		case keyQueries:
			ok = sc.scanQueries(p)
		}
		if !ok {
			return false
		}
	}
}

// scanQueries scans the batch array into sc.queries.
//
//qosrma:noalloc
func (sc *jsonScratch) scanQueries(p *jsonScan) bool {
	if !p.eat('[') {
		return false
	}
	for first := true; ; first = false {
		done, ok := p.element(first)
		if !ok || done {
			return ok
		}
		var q jsonQuery
		if !p.eat('{') || !sc.queryMembers(p, &q, false) {
			return false
		}
		sc.queries = append(sc.queries, q)
	}
}

// scanSlacks scans a per-core slack array into sc.floats.
//
//qosrma:noalloc
func (sc *jsonScratch) scanSlacks(p *jsonScan) (span, bool) {
	sp := span{lo: len(sc.floats)}
	if !p.eat('[') {
		return sp, false
	}
	for first := true; ; first = false {
		done, ok := p.element(first)
		if !ok || done {
			sp.hi = len(sc.floats)
			return sp, ok
		}
		v, ok := p.float()
		if !ok {
			return sp, false
		}
		sc.floats = append(sc.floats, v)
	}
}

// scanApps scans a co-phase vector into sc.apps.
//
//qosrma:noalloc
func (sc *jsonScratch) scanApps(p *jsonScan) (span, bool) {
	sp := span{lo: len(sc.apps)}
	if !p.eat('[') {
		return sp, false
	}
	for first := true; ; first = false {
		done, ok := p.element(first)
		if !ok || done {
			sp.hi = len(sc.apps)
			return sp, ok
		}
		if !p.eat('{') {
			return sp, false
		}
		var app jsonApp
		seen := 0
		for f := true; ; f = false {
			key, done, ok := p.member(f)
			if !ok {
				return sp, false
			}
			if done {
				break
			}
			var bit int
			//qosrma:allow(noalloc) a switch on a converted byte slice does not allocate
			switch string(key) {
			case "bench":
				bit = keyBench
			case "phase":
				bit = keyPhase
			}
			if bit == 0 || seen&bit != 0 {
				return sp, false
			}
			seen |= bit
			if p.null() {
				continue
			}
			if bit == keyBench {
				app.bench, ok = p.str()
			} else {
				app.phase, ok = p.integer()
			}
			if !ok {
				return sp, false
			}
		}
		sc.apps = append(sc.apps, app)
	}
}

// jsonScan is a cursor over a request body. Every method skips leading
// whitespace and reports false on input outside the scanner's subset.
type jsonScan struct {
	b []byte
	i int
}

func (p *jsonScan) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (p *jsonScan) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal.
func (p *jsonScan) null() bool {
	p.ws()
	if bytes.HasPrefix(p.b[p.i:], nullLiteral) {
		p.i += len(nullLiteral)
		return true
	}
	return false
}

var nullLiteral = []byte("null")

// member advances to the next member of an object whose '{' has been
// consumed (first: no member read yet). It returns the key with the
// cursor past its ':', or done at the closing brace.
func (p *jsonScan) member(first bool) (key []byte, done, ok bool) {
	if p.eat('}') {
		return nil, true, true
	}
	if !first && !p.eat(',') {
		return nil, false, false
	}
	key, ok = p.str()
	if !ok || !p.eat(':') {
		return nil, false, false
	}
	return key, false, true
}

// element advances to the next element of an array whose '[' has been
// consumed, reporting done at the closing bracket.
func (p *jsonScan) element(first bool) (done, ok bool) {
	if p.eat(']') {
		return true, true
	}
	return false, first || p.eat(',')
}

// str consumes a string of printable ASCII without escapes, returning its
// contents (aliasing the body).
func (p *jsonScan) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes a JSON number, returning its literal and whether it has
// neither fraction nor exponent.
func (p *jsonScan) number() (lit []byte, integer, ok bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case !p.digits():
		return nil, false, false
	}
	integer = true
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		integer = false
		if !p.digits() {
			return nil, false, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		integer = false
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false, false
		}
	}
	return p.b[start:p.i], integer, true
}

// digits consumes a run of decimal digits, reporting whether there was
// at least one.
func (p *jsonScan) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// integer consumes an integer literal of at most 18 digits (so it cannot
// overflow); encoding/json rejects fractions and exponents for an int.
func (p *jsonScan) integer() (int, bool) {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return 0, false
	}
	v := 0
	for _, c := range lit {
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// float consumes a number and converts it as encoding/json does; a
// literal out of float64 range is left to encoding/json's error.
func (p *jsonScan) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	// ParseFloat does not retain its argument, so the conversion of a
	// literal of up to 32 bytes stays on the stack.
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

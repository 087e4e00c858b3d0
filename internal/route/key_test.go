package route

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"qosrma/internal/service"
	"qosrma/internal/wire"
)

// routingKeyRef renders a JSON query's routing key as RoutingKey did
// before the proxies streamed its hash: the placement reference.
func routingKeyRef(dst []byte, q *service.DecideQuery) []byte {
	dst = append(dst, strings.ToLower(q.Scheme)...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(q.Model), 10)
	dst = append(dst, '/')
	switch {
	case len(q.Slacks) > 0:
		for i, v := range q.Slacks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	case q.Slack != 0:
		dst = strconv.AppendFloat(dst, q.Slack, 'g', -1, 64)
	}
	for _, app := range q.Apps {
		dst = append(dst, '|')
		dst = append(dst, app.Bench...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(app.Phase), 10)
	}
	return dst
}

// wireRoutingKeyRef renders wire query qi's routing key as the wire
// proxy did before it streamed the hash; names is the Meta bench table
// (nil before Meta).
func wireRoutingKeyRef(dst []byte, req *wire.DecideRequest, qi int, names map[uint16]string) []byte {
	if int(req.Scheme) < len(wireSchemeNames) {
		dst = append(dst, wireSchemeNames[req.Scheme]...)
	} else {
		dst = strconv.AppendInt(dst, int64(req.Scheme), 10)
	}
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(req.Model), 10)
	dst = append(dst, '/')
	switch {
	case req.Flags&wire.FlagSlackPerCore != 0:
		for i, v := range req.Slacks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	case req.Flags&wire.FlagSlackUniform != 0 && req.Slack != 0:
		dst = strconv.AppendFloat(dst, req.Slack, 'g', -1, 64)
	}
	n := int(req.NCores)
	for _, a := range req.Apps[qi*n : (qi+1)*n] {
		dst = append(dst, '|')
		if name, ok := names[a.Bench]; ok {
			dst = append(dst, name...)
		} else {
			dst = append(dst, '#')
			dst = strconv.AppendInt(dst, int64(a.Bench), 10)
		}
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(a.Phase), 10)
	}
	return dst
}

// wireJSONForm is wire query qi as a JSON client would send it.
func wireJSONForm(req *wire.DecideRequest, qi int, names map[uint16]string) service.DecideQuery {
	q := service.DecideQuery{Scheme: strconv.Itoa(int(req.Scheme)), Model: int(req.Model)}
	if int(req.Scheme) < len(wireSchemeNames) {
		q.Scheme = wireSchemeNames[req.Scheme]
	}
	switch {
	case req.Flags&wire.FlagSlackPerCore != 0:
		q.Slacks = req.Slacks
	case req.Flags&wire.FlagSlackUniform != 0:
		q.Slack = req.Slack
	}
	n := int(req.NCores)
	for _, a := range req.Apps[qi*n : (qi+1)*n] {
		name, ok := names[a.Bench]
		if !ok {
			name = "#" + strconv.Itoa(int(a.Bench))
		}
		q.Apps = append(q.Apps, service.AppQuery{Bench: name, Phase: int(a.Phase)})
	}
	return q
}

// testMetaBenches lists IDs with holes (3, 4, 6, 8) and ends at 9, so a
// wire batch can name listed, unlisted and out-of-table IDs.
var testMetaBenches = []wire.MetaBench{
	{ID: 0, Name: "mcf"}, {ID: 1, Name: "lbm"}, {ID: 2, Name: "milc"},
	{ID: 5, Name: "gcc"}, {ID: 7, Name: "Soplex"}, {ID: 9, Name: "ñandú"},
}

// testWireMeta publishes testMetaBenches through the proxy's own Meta
// parser and returns it with the reference name map.
func testWireMeta(t testing.TB) (*wireMeta, map[uint16]string) {
	frame := wire.AppendMeta(nil, &wire.Meta{DBHash: 42, NCores: 4, Benches: testMetaBenches})
	meta, err := newWireMeta(frame[wire.HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(meta.raw, frame) {
		t.Fatal("published Meta frame differs from the backend's")
	}
	names := map[uint16]string{}
	for _, b := range testMetaBenches {
		names[b.ID] = b.Name
	}
	return meta, names
}

// fuzzBenchNames are JSON bench names: mixed case, non-ASCII, empty and
// key punctuation.
var fuzzBenchNames = []string{"mcf", "LBM", "milc", "gcc", "ñandú", "", "a|b:1", "soplex"}

// FuzzRoutingHash pins placement: on both codecs the streamed hash of
// every query equals Hash of its rendered key — RoutingKey's and the
// pre-streaming reference rendering's, which must agree byte for byte —
// and the picked group equals Ring.Pick of that key (Ring's spill walk
// with a group down).
//
// The JSON batch mixes configurations, chosen per query by the top bits
// of its first app byte: the scheme as given or upper-cased, per-core
// slack vectors of both slacks in either order, the second slack with
// the next model, and an empty non-nil slack vector.
// The wire batch takes its scheme ID, slack flags and bench IDs from the
// input; flags bit 3 routes it before Meta has arrived.
func FuzzRoutingHash(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("rm2", 0, 0.2, 0.0, uint8(3), uint8(0x11), []byte{1, 2, 3, 4, 0x45, 6, 0x87, 8, 0xc9, 10})
	f.Add("RM2", 2, negZero, negZero, uint8(3), uint8(0x21), []byte{0x20, 0, 0x80, 1, 0xa0, 2, 0, 3})
	f.Add("rm2", 0, 0.0, negZero, uint8(3), uint8(0x02), []byte{0x40, 1, 0x60, 2, 0x40, 3, 0x60, 4})
	f.Add("Rm3", 3, 0.0, negZero, uint8(4), uint8(0x32), []byte{0x80, 1, 0x81, 2, 0xc2, 3, 0xa3, 4, 0x05, 0xff})
	f.Add("İß", 1, 0.5, 1e-300, uint8(200), uint8(0x8a), []byte{15, 3, 14, 250, 9, 7, 0xc3, 0x80})
	f.Add("ucp", -1, 0.1, 0.1, uint8(5), uint8(0x59), []byte{0xc8, 4, 0x06, 4, 0x47, 0x81})
	f.Add("dvfs", 0, 0.0, 0.0, uint8(0), uint8(0), []byte{})
	p := NewProxyWithOptions(mustRing(f, testGroups(3, 1)), nil, Options{})
	meta, names := testWireMeta(f)
	f.Fuzz(func(t *testing.T, scheme string, model int, slack, slack2 float64, wireScheme, flags uint8, apps []byte) {
		n := 1 + int(flags>>4)%4
		count := min(max(len(apps)/(2*n), 1), 64)
		apps = append(append([]byte(nil), apps...), make([]byte, 2*n*count)...) // zero-pad a short tail
		avail := []bool{flags&0x40 == 0, flags&0x80 == 0, true}
		down := picker{p: p, avail: avail}
		check := func(codec string, qi int, h uint64, key []byte) {
			t.Helper()
			if want := Hash(key); h != want {
				t.Fatalf("%s query %d: streamed hash %#x, Hash(%q) = %#x", codec, qi, h, key, want)
			}
			if got, want := p.groupPicker().pick(h), p.ring.Pick(key); got != want {
				t.Fatalf("%s query %d: picked group %d, Ring.Pick %d", codec, qi, got, want)
			}
			if got, want := down.pick(h), p.ring.PickAvailableHash(Hash(key), func(g int) bool { return avail[g] }); got != want {
				t.Fatalf("%s query %d: picked group %d with %v up, ring walk %d", codec, qi, got, avail, want)
			}
		}

		slacks, swapped := make([]float64, n), make([]float64, n)
		for i := range slacks {
			slacks[i], swapped[i] = slack, slack2
			if i%2 == 1 {
				slacks[i], swapped[i] = slack2, slack
			}
		}
		qs := make([]service.DecideQuery, count)
		for qi := range qs {
			b := apps[qi*2*n : (qi+1)*2*n]
			q := service.DecideQuery{Scheme: scheme, Model: model, Slack: slack}
			switch b[0] >> 5 {
			case 1:
				q.Scheme = strings.ToUpper(scheme)
			case 2:
				q.Slacks = slacks
			case 3:
				q.Slacks = swapped
			case 4:
				q.Model, q.Slack = model+1, slack2
			case 5:
				q.Slack, q.Slacks = slack2, []float64{}
			}
			for c := 0; c < n; c++ {
				q.Apps = append(q.Apps, service.AppQuery{
					Bench: fuzzBenchNames[int(b[2*c])%len(fuzzBenchNames)], Phase: int(int8(b[2*c+1]))})
			}
			qs[qi] = q
		}
		for qi, h := range queryHashes(nil, qs) {
			key := RoutingKey(nil, &qs[qi])
			if ref := routingKeyRef(nil, &qs[qi]); !bytes.Equal(key, ref) {
				t.Fatalf("json query %d: RoutingKey %q, reference %q", qi, key, ref)
			}
			check("json", qi, h, key)
		}

		req := &wire.DecideRequest{Scheme: wireScheme, Model: uint8(model), NCores: uint8(n), Slack: slack}
		switch flags & 3 {
		case 1:
			req.Flags = wire.FlagSlackUniform
		case 2:
			req.Flags, req.Slacks = wire.FlagSlackPerCore, slacks
		}
		for i := 0; i < n*count; i++ {
			req.Apps = append(req.Apps, wire.App{Bench: uint16(apps[2*i] % 16), Phase: uint16(apps[2*i+1]) * 257})
		}
		wm, wnames := meta, names
		if flags&8 != 0 {
			wm, wnames = nil, nil
		}
		hs, _ := wireKeyHashes(nil, nil, req, wm)
		for qi, h := range hs {
			ref := wireRoutingKeyRef(nil, req, qi, wnames)
			q := wireJSONForm(req, qi, wnames)
			if key := RoutingKey(nil, &q); !bytes.Equal(key, ref) {
				t.Fatalf("wire query %d: RoutingKey of the JSON form %q, wire reference %q", qi, key, ref)
			}
			check("wire", qi, h, ref)
		}
	})
}

func mustRing(t testing.TB, groups []Backend) *Ring {
	r, err := New(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRoutingHashAllocs pins the //qosrma:noalloc routing helpers: a
// warm wire proxy places a 64-query batch (Meta published, every group
// up) without allocating, and so does streaming one app into a hash.
func TestRoutingHashAllocs(t *testing.T) {
	p := NewProxyWithOptions(mustRing(t, testGroups(2, 1)), nil, Options{})
	wp := &WireProxy{p: p}
	meta, _ := testWireMeta(t)
	wp.meta.Store(meta)
	req := wireTestRequest(64)
	m := mergeState{groups: make([][]int, len(p.groups))}
	if _, split := wp.place(&m, req); !split {
		t.Fatal("64 distinct queries all landed on one group")
	}
	if got := testing.AllocsPerRun(100, func() { wp.place(&m, req) }); got != 0 {
		t.Fatalf("placing a warm 64-query wire batch allocated %.0f times, want 0", got)
	}
	prefix, h := []byte("rm2/2/0.2"), uint64(0)
	if got := testing.AllocsPerRun(100, func() { h = hashKeyApp(hashOn(h, prefix), "mcf", 3) }); got != 0 {
		t.Fatalf("hashOn+hashKeyApp allocated %.0f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for g := range m.groups {
			m.groups[g] = m.groups[g][:0]
		}
		p.groupPicker().assign(m.groups, m.hashes)
	}); got != 0 {
		t.Fatalf("groupPicker+assign allocated %.0f times, want 0", got)
	}
}

package simdb

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/trace"
)

// fuzzSeedDB builds one small real database, memoized across fuzz
// iterations (the corpus mutates its serialized bytes, not the build).
var fuzzSeedDB = sync.OnceValues(func() ([]byte, error) {
	sys := arch.DefaultSystemConfig(2)
	opt := DefaultBuildOptions()
	opt.Sample = trace.SampleParams{Accesses: 4000, WarmupAccesses: 1000}
	db, err := Build(sys, []*trace.Benchmark{trace.ByName("bzip2")}, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// gzipped wraps raw bytes in a gzip stream (reaching the gob layer
// requires a valid gzip envelope and magic).
func gzipped(raw []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw) //nolint:errcheck // in-memory writer cannot fail
	zw.Close()
	return buf.Bytes()
}

// FuzzLoad pins the serialization hardening invariant: Load must never
// panic, whatever bytes it is fed — it either returns a database that
// passed structural validation or an error. The seed corpus covers every
// layer of the format (gzip envelope, magic, version, gob payload,
// structural validation) plus a fully valid database for the fuzzer to
// mutate; regression inputs live in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	valid, err := fuzzSeedDB()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("not gzip at all"))
	f.Add(gzipped([]byte("WRONGMAG payload")))
	f.Add(gzipped([]byte("QOSRMADB")))                 // magic, then EOF
	f.Add(gzipped([]byte("QOSRMADB\x63\x00\x00\x00"))) // version 99
	var badGob bytes.Buffer
	io.WriteString(&badGob, "QOSRMADB")                             //nolint:errcheck
	binary.Write(&badGob, binary.LittleEndian, dbVersion)           //nolint:errcheck
	io.WriteString(&badGob, "this is not a gob stream either \x00") //nolint:errcheck
	f.Add(gzipped(badGob.Bytes()))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-7])
	// Flip a byte deep in the compressed payload.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)*3/4] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A database that decodes must be fully query-safe: walk the hot
		// paths a server would take on every (bench, phase, lattice) index.
		baseIdx := db.BaselineIdx()
		for id := 0; id < db.NumBenches(); id++ {
			bid := BenchID(id)
			for _, phase := range db.PhaseTraceAt(bid) {
				_ = db.PerfAt(bid, phase, baseIdx).Cycles
				rec := db.RecordAt(bid, phase)
				_ = rec.Misses[db.Lattice.NumWays-1]
				_ = rec.Leading[db.Lattice.NumSizes-1][db.Lattice.NumWays-1]
			}
		}
	})
}

// TestFuzzCorpusHoldsValidDB: the committed valid-db seed is a database
// this build loads, so the fuzzer starts from the current format rather
// than from a file the version check refuses.
func TestFuzzCorpusHoldsValidDB(t *testing.T) {
	b, err := os.ReadFile("testdata/fuzz/FuzzLoad/valid-db")
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(body, ")") {
		t.Fatal("valid-db is not a []byte corpus entry")
	}
	data, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(strings.NewReader(data)); err != nil {
		t.Fatalf("valid-db seed does not load: %v", err)
	}
}

package simdb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Fingerprint returns a short, stable content hash of the compiled
// database: the system configuration and power parameters, the interned
// benchmark set, and the float bits of every compiled per-setting
// performance point: its cycles, seconds and EPI, and the misses, leading
// misses and LLC accesses its phase record gives at that setting. Two
// databases answer every query identically iff their fingerprints match
// (the serving hot path reads only the hashed state), which is what
// makes the fingerprint usable as the snapshot version the decision
// service surfaces in /v1/meta and /admin/status:
// deterministic rebuilds hash identically, while any change to the model,
// the suite or the configuration shows up as a new version.
func (db *DB) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "sys=%+v|power=%+v|benches=%d|", db.Sys, db.Power, len(db.Benches))
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:]) //nolint:errcheck // fnv cannot fail
	}
	for _, bd := range db.Benches {
		fmt.Fprintf(h, "%s/%d|", bd.Name, len(bd.Phases))
		for p, tab := range bd.PerfTables {
			rec := bd.Phases[p]
			for i := range tab {
				pt := &tab[i]
				s := db.Lattice.Setting(i)
				writeF(pt.Cycles)
				writeF(pt.Seconds)
				writeF(pt.EPI())
				writeF(rec.MissesAt(s))
				writeF(rec.LeadingAt(s))
				writeF(rec.LLCAccesses())
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

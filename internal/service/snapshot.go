// Snapshot hot-swap: the server's entire serving state — the compiled
// database, the scorer memoized against it, and the version identifying
// both — lives behind one atomic pointer. A request loads the pointer
// once and carries the snapshot through resolution, shard visits and
// response rendering, so every answer is computed wholly against a single
// consistent state: a reload can never produce a torn response. In-flight
// requests finish on the snapshot they started with; requests arriving
// after the swap see the new one. Shard-local derived state (decision
// LRU, manager pool, statistics scratch) is keyed by snapshot generation
// and rebuilt under the shard's lock the first time a request brings a
// newer snapshot.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
)

// snapshot is one immutable serving state.
type snapshot struct {
	// gen is the strictly increasing swap generation (1 = the database the
	// server was constructed over).
	gen uint64
	// db is the compiled simulation database.
	db *simdb.DB
	// scorer is the collocation scorer memoized against db.
	scorer *scoreState
	// hash is db.Fingerprint(): the content version served in /v1/meta,
	// /admin/status and the qosrmad_snapshot_info metric. hash64 is the
	// same fingerprint as the integer the binary protocol carries (wire
	// Meta frames advertise it; DecideRequest frames may pin it).
	hash   string
	hash64 uint64
	// source describes where the database came from ("built", a file
	// path, "reload", ...), for operators reading /admin/status.
	source string
	// loaded is when this snapshot became current.
	loaded time.Time
	// settingJSON holds, per (size, freq_idx) at index
	// size*len(DVFS)+freq_idx, encoding/json's rendering of a SettingJSON
	// up to its last value: `{"size":…,"freq_idx":…,"freq_ghz":…,"ways":`.
	settingJSON [][]byte
}

// errNoReloader answers /admin/reload when the server has no configured
// reload source and the request named no path.
var errNoReloader = errors.New("service: no reload source configured (pass {\"path\": ...} or set Options.Reloader)")

// newSnapshot assembles a snapshot and assigns it the next generation.
func (s *Server) newSnapshot(db *simdb.DB, source string) *snapshot {
	hash := db.Fingerprint()
	// Fingerprint renders a 64-bit FNV as %016x; recover the integer for
	// the binary protocol. The parse cannot fail on a well-formed
	// fingerprint, and a zero is simply never matched by clients.
	h64, _ := strconv.ParseUint(hash, 16, 64)
	return &snapshot{
		gen:         s.gen.Add(1),
		db:          db,
		scorer:      newScoreState(db),
		hash:        hash,
		hash64:      h64,
		source:      source,
		loaded:      time.Now(),
		settingJSON: renderSettingPrefixes(db.Sys),
	}
}

// renderSettingPrefixes renders every (size, freq_idx) prefix of a
// SettingJSON with encoding/json itself, so the JSON decide path's answers
// are json.Encoder's bytes by construction.
func renderSettingPrefixes(sys arch.SystemConfig) [][]byte {
	out := make([][]byte, 0, arch.NumCoreSizes*len(sys.DVFS))
	for size := arch.CoreSize(0); size < arch.NumCoreSizes; size++ {
		for f, op := range sys.DVFS {
			b, err := json.Marshal(SettingJSON{Size: size.String(), FreqIdx: f, FreqGHz: op.FreqGHz})
			if err != nil {
				// Only a non-finite frequency fails: JSON cannot
				// represent it, so no decide answer could be rendered.
				panic(fmt.Sprintf("service: render setting %v/%d: %v", size, f, err))
			}
			// Ways is the last field and zero here: drop its `0}`.
			out = append(out, b[:len(b)-len("0}")])
		}
	}
	return out
}

// Swap atomically replaces the serving snapshot with a new one built over
// db. In-flight requests complete on the snapshot they resolved against;
// requests arriving after Swap returns see the new database. Each shard
// drops its decision LRU and manager pool the first time a request of
// the new generation visits it. Returns the new snapshot's
// content hash and generation.
func (s *Server) Swap(db *simdb.DB, source string) (hash string, gen uint64) {
	sn := s.newSnapshot(db, source)
	s.snap.Store(sn)
	s.metrics.reloads.Inc()
	return sn.hash, sn.gen
}

// Reload rebuilds or re-reads the database from the configured reloader
// (Options.Reloader) and swaps it in. This is what SIGHUP and a bodyless
// POST /admin/reload trigger.
func (s *Server) Reload() (hash string, gen uint64, err error) {
	if s.opt.Reloader == nil {
		return "", 0, errNoReloader
	}
	db, source, err := s.opt.Reloader()
	if err != nil {
		return "", 0, err
	}
	hash, gen = s.Swap(db, source)
	return hash, gen, nil
}

// Snapshot reports the current serving version: the database content
// hash, the swap generation, the source description and the load time.
func (s *Server) Snapshot() (hash string, gen uint64, source string, loaded time.Time) {
	sn := s.snap.Load()
	return sn.hash, sn.gen, sn.source, sn.loaded
}

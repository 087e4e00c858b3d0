package simdb

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Serialization format: gzip stream containing a magic tag, a format
// version, and the gob-encoded database — including the compiled lattice
// tables, so a loaded database is query-ready without recompilation.
// Version 1 was the bare gob encoding of the map-keyed database; it carries
// no magic and is rejected with a descriptive error. Version 2 stored
// fifteen float64s per compiled point; version 3 stores the 32-byte
// PerfPoint. Older versions are rejected with a request to rebuild.
const (
	dbMagic   = "QOSRMADB"
	dbVersion = uint32(3)
)

// Save serializes the database, compiled tables included.
func (db *DB) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if _, err := io.WriteString(zw, dbMagic); err != nil {
		return fmt.Errorf("simdb: write header: %w", err)
	}
	if err := binary.Write(zw, binary.LittleEndian, dbVersion); err != nil {
		return fmt.Errorf("simdb: write version: %w", err)
	}
	if err := gob.NewEncoder(zw).Encode(db); err != nil {
		return fmt.Errorf("simdb: encode: %w", err)
	}
	return zw.Close()
}

// Load deserializes a database written by Save and rebuilds the intern
// index. Files from other programs, corrupt files, and databases written
// by incompatible versions are rejected with descriptive errors.
func Load(r io.Reader) (*DB, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("simdb: gzip: %w", err)
	}
	defer zr.Close()
	magic := make([]byte, len(dbMagic))
	if _, err := io.ReadFull(zr, magic); err != nil {
		return nil, fmt.Errorf("simdb: read header: %w", err)
	}
	if string(magic) != dbMagic {
		return nil, fmt.Errorf("simdb: not a simulation database (bad magic %q; old un-versioned databases must be rebuilt)", magic)
	}
	var version uint32
	if err := binary.Read(zr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("simdb: read version: %w", err)
	}
	if version != dbVersion {
		return nil, fmt.Errorf("simdb: database format version %d, this build reads %d; rebuild the database", version, dbVersion)
	}
	var db DB
	if err := gob.NewDecoder(zr).Decode(&db); err != nil {
		return nil, fmt.Errorf("simdb: decode: %w", err)
	}
	if err := db.validate(); err != nil {
		return nil, err
	}
	db.reindex()
	return &db, nil
}

// validate checks the structural invariants of a decoded database so a
// truncated or hand-edited file fails loudly instead of panicking later:
// every slice a query path indexes — phase traces, miss and leading-miss
// profiles, compiled tables — must have exactly the geometry the system
// configuration implies. FuzzLoad drives arbitrary bytes through Load and
// relies on this being airtight.
func (db *DB) validate() error {
	if err := db.Sys.Validate(); err != nil {
		return fmt.Errorf("simdb: corrupt database: %w", err)
	}
	lat := db.Sys.Lattice()
	if db.Lattice != lat {
		return fmt.Errorf("simdb: corrupt database: lattice %+v does not match system %+v", db.Lattice, lat)
	}
	profileDims := func(prof [][]float64) bool {
		if len(prof) != lat.NumSizes {
			return false
		}
		for _, row := range prof {
			if len(row) < lat.NumWays {
				return false
			}
		}
		return true
	}
	for _, bd := range db.Benches {
		if bd == nil || bd.Analysis == nil {
			return fmt.Errorf("simdb: corrupt database: missing benchmark data")
		}
		an := bd.Analysis
		if an.NumPhases <= 0 || len(bd.Phases) != an.NumPhases || len(bd.PerfTables) != len(bd.Phases) {
			return fmt.Errorf("simdb: corrupt database: %s has %d phases, %d records, %d tables",
				bd.Name, an.NumPhases, len(bd.Phases), len(bd.PerfTables))
		}
		if len(an.PhaseTrace) == 0 {
			return fmt.Errorf("simdb: corrupt database: %s has an empty phase trace", bd.Name)
		}
		for _, ph := range an.PhaseTrace {
			if ph < 0 || ph >= an.NumPhases {
				return fmt.Errorf("simdb: corrupt database: %s phase trace references phase %d of %d",
					bd.Name, ph, an.NumPhases)
			}
		}
		for p, rec := range bd.Phases {
			if rec == nil ||
				len(rec.Misses) < lat.NumWays || len(rec.SampledMisses) < lat.NumWays ||
				!profileDims(rec.Leading) || !profileDims(rec.SampledLeading) {
				return fmt.Errorf("simdb: corrupt database: %s phase %d record malformed", bd.Name, p)
			}
			if len(bd.PerfTables[p]) != lat.Len() {
				return fmt.Errorf("simdb: corrupt database: %s phase %d table has %d entries, lattice needs %d",
					bd.Name, p, len(bd.PerfTables[p]), lat.Len())
			}
		}
	}
	return nil
}

// SaveFile writes the database to a file path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a database from a file path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Package workload implements the paper's benchmark categorization and
// workload-mix construction.
//
// Paper I classifies applications along two axes measured at the baseline
// allocation: memory intensity (MPKI above a threshold) and cache
// sensitivity (MPKI variation across allocations around the baseline above
// a threshold). Paper II replaces memory intensity with parallelism
// sensitivity (MLP variation across core sizes). Both classifications are
// computed here from the simulation-results database — from measurements,
// never from the generative ground truth.
package workload

import (
	"fmt"

	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

// Class is a Paper I application category.
type Class int

const (
	// MemSensitive: memory-intensive and cache-sensitive.
	MemSensitive Class = iota
	// MemInsensitive: memory-intensive, cache-insensitive.
	MemInsensitive
	// CompSensitive: compute-intensive, cache-sensitive.
	CompSensitive
	// CompInsensitive: compute-intensive, cache-insensitive.
	CompInsensitive
)

// String returns the category mnemonic used in the tables.
func (c Class) String() string {
	switch c {
	case MemSensitive:
		return "MS"
	case MemInsensitive:
		return "MI"
	case CompSensitive:
		return "CS"
	case CompInsensitive:
		return "CI"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Thresholds for the measurement-based classification.
const (
	// MemIntensityMPKI: baseline MPKI above this is memory-intensive.
	MemIntensityMPKI = 3.0
	// CacheSensRelDrop: relative MPKI reduction across the allocation range
	// around the baseline above this is cache-sensitive.
	CacheSensRelDrop = 0.20
	// CacheSensAbsDrop: the reduction must also exceed this many MPKI.
	CacheSensAbsDrop = 0.4
	// ParSensMLPRatio: MLP(large)/MLP(small) above this is
	// parallelism-sensitive (Paper II).
	ParSensMLPRatio = 1.25
)

// Profile is the measured characterization of one benchmark, aggregated
// over its phases with SimPoint weights.
type Profile struct {
	Bench        string
	BaselineMPKI float64
	// MPKIDrop is MPKI(low ways) - MPKI(high ways) across the probed range.
	MPKIDrop    float64
	RelDrop     float64
	MLPSmall    float64
	MLPLarge    float64
	MemIntense  bool
	CacheSens   bool
	ParSens     bool
	PaperIClass Class
}

// Characterize measures one benchmark against the database.
func Characterize(db *simdb.DB, bench string) (*Profile, error) {
	an := db.Analysis(bench)
	if an == nil {
		return nil, fmt.Errorf("workload: unknown benchmark %s", bench)
	}
	assoc := db.Sys.LLC.Assoc
	wBase := db.Sys.BaselineWays()
	wLo, wHi := 2, 3*assoc/4
	if wLo >= wHi {
		wLo, wHi = 1, assoc
	}
	const kiloInstr = trace.SliceInstructions / 1000

	p := &Profile{Bench: bench}
	var mpkiBase, mpkiLo, mpkiHi float64
	var leadSmallBase, leadLargeBase, missBase float64
	for ph := 0; ph < an.NumPhases; ph++ {
		rec, err := db.Record(bench, ph)
		if err != nil {
			return nil, err
		}
		w := rec.Weight
		mpkiBase += w * rec.Misses[wBase] / kiloInstr
		mpkiLo += w * rec.Misses[wLo] / kiloInstr
		mpkiHi += w * rec.Misses[wHi] / kiloInstr
		missBase += w * rec.Misses[wBase]
		leadSmallBase += w * rec.Leading[0][wBase]
		leadLargeBase += w * rec.Leading[len(rec.Leading)-1][wBase]
	}
	p.BaselineMPKI = mpkiBase
	p.MPKIDrop = mpkiLo - mpkiHi
	if mpkiLo > 0 {
		p.RelDrop = p.MPKIDrop / mpkiLo
	}
	if leadSmallBase > 0 {
		p.MLPSmall = missBase / leadSmallBase
	} else {
		p.MLPSmall = 1
	}
	if leadLargeBase > 0 {
		p.MLPLarge = missBase / leadLargeBase
	} else {
		p.MLPLarge = 1
	}

	p.MemIntense = p.BaselineMPKI > MemIntensityMPKI
	p.CacheSens = p.RelDrop > CacheSensRelDrop && p.MPKIDrop > CacheSensAbsDrop
	p.ParSens = p.MLPLarge/p.MLPSmall > ParSensMLPRatio

	switch {
	case p.MemIntense && p.CacheSens:
		p.PaperIClass = MemSensitive
	case p.MemIntense:
		p.PaperIClass = MemInsensitive
	case p.CacheSens:
		p.PaperIClass = CompSensitive
	default:
		p.PaperIClass = CompInsensitive
	}
	return p, nil
}

// CharacterizeAll profiles every benchmark present in the database,
// sorted by name for determinism.
func CharacterizeAll(db *simdb.DB) ([]*Profile, error) {
	names := db.BenchNames()
	out := make([]*Profile, 0, len(names))
	for _, n := range names {
		p, err := Characterize(db, n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ByClass groups profile names by Paper I class.
func ByClass(profiles []*Profile) map[Class][]string {
	m := make(map[Class][]string)
	for _, p := range profiles {
		m[p.PaperIClass] = append(m[p.PaperIClass], p.Bench)
	}
	return m
}

// Mix is one multi-programmed workload: one benchmark per core.
type Mix struct {
	Name string
	Apps []string
	// ClassPattern records the category sequence the mix was built from.
	ClassPattern []Class
}

// PaperIMixes builds the Paper I workloads: numMixes mixes of `cores`
// applications each, cycling deterministically through category patterns
// that span homogeneous and heterogeneous combinations, and through the
// benchmarks within each category.
func PaperIMixes(profiles []*Profile, cores, numMixes int) []Mix {
	if len(profiles) == 0 {
		// Degenerate (empty) database: there is nothing to pick from, not
		// even through the any-class fallback below, so no mixes exist.
		return nil
	}
	groups := ByClass(profiles)
	// Category patterns for 4 apps; for more cores the pattern repeats.
	patterns := [][]Class{
		{MemSensitive, MemSensitive, MemSensitive, MemSensitive},
		{MemInsensitive, MemInsensitive, MemInsensitive, MemInsensitive},
		{CompSensitive, CompSensitive, CompSensitive, CompSensitive},
		{CompInsensitive, CompInsensitive, CompInsensitive, CompInsensitive},
		{MemSensitive, MemInsensitive, CompSensitive, CompInsensitive},
		{MemSensitive, MemSensitive, MemInsensitive, MemInsensitive},
		{MemSensitive, MemSensitive, CompSensitive, CompSensitive},
		{MemSensitive, MemSensitive, CompInsensitive, CompInsensitive},
		{MemInsensitive, MemInsensitive, CompSensitive, CompSensitive},
		{MemInsensitive, MemInsensitive, CompInsensitive, CompInsensitive},
		{CompSensitive, CompSensitive, CompInsensitive, CompInsensitive},
		{MemSensitive, MemInsensitive, MemInsensitive, CompInsensitive},
		{MemSensitive, CompSensitive, CompInsensitive, CompInsensitive},
		{MemSensitive, MemInsensitive, CompSensitive, CompSensitive},
		{MemInsensitive, CompSensitive, CompSensitive, CompInsensitive},
		{MemSensitive, MemSensitive, MemSensitive, CompInsensitive},
		{MemInsensitive, MemInsensitive, MemInsensitive, CompSensitive},
		{CompSensitive, CompSensitive, CompSensitive, MemInsensitive},
		{CompInsensitive, CompInsensitive, CompInsensitive, MemSensitive},
		{MemSensitive, CompSensitive, MemInsensitive, CompInsensitive},
	}
	next := make(map[Class]int)
	pick := func(c Class) string {
		g := groups[c]
		if len(g) == 0 {
			// Fall back to any profiled benchmark (degenerate databases).
			for _, alt := range []Class{MemSensitive, MemInsensitive, CompSensitive, CompInsensitive} {
				if len(groups[alt]) > 0 {
					g = groups[alt]
					c = alt
					break
				}
			}
		}
		b := g[next[c]%len(g)]
		next[c]++
		return b
	}

	mixes := make([]Mix, 0, numMixes)
	for i := 0; i < numMixes; i++ {
		pat := patterns[i%len(patterns)]
		m := Mix{Name: fmt.Sprintf("mix%02d", i)}
		for core := 0; core < cores; core++ {
			cls := pat[core%len(pat)]
			m.Apps = append(m.Apps, pick(cls))
			m.ClassPattern = append(m.ClassPattern, cls)
		}
		mixes = append(mixes, m)
	}
	return mixes
}

// PaperIIClass is the Paper II category of one application: cache
// sensitivity crossed with parallelism sensitivity.
type PaperIIClass int

const (
	// CSPS: cache-sensitive, parallelism-sensitive.
	CSPS PaperIIClass = iota
	// CSPI: cache-sensitive, parallelism-insensitive.
	CSPI
	// CIPS: cache-insensitive, parallelism-sensitive.
	CIPS
	// CIPI: cache-insensitive, parallelism-insensitive.
	CIPI
)

// String returns the category mnemonic.
func (c PaperIIClass) String() string {
	switch c {
	case CSPS:
		return "CS+PS"
	case CSPI:
		return "CS+PI"
	case CIPS:
		return "CI+PS"
	case CIPI:
		return "CI+PI"
	default:
		return fmt.Sprintf("PaperIIClass(%d)", int(c))
	}
}

// PaperII returns the Paper II class of a profile.
func (p *Profile) PaperII() PaperIIClass {
	switch {
	case p.CacheSens && p.ParSens:
		return CSPS
	case p.CacheSens:
		return CSPI
	case p.ParSens:
		return CIPS
	default:
		return CIPI
	}
}

// ByPaperIIClass groups benchmarks by Paper II category.
func ByPaperIIClass(profiles []*Profile) map[PaperIIClass][]string {
	m := make(map[PaperIIClass][]string)
	for _, p := range profiles {
		m[p.PaperII()] = append(m[p.PaperII()], p.Bench)
	}
	return m
}

// PaperIIMixes builds the 16 four-core category-pair mixes of Paper II's
// systematic analysis: for every ordered pair (A, B) of the four Paper II
// categories, a mix with two applications from A and two from B.
func PaperIIMixes(profiles []*Profile) []Mix {
	if len(profiles) == 0 {
		// Same degenerate case as PaperIMixes: the fallback loop would find
		// every group empty and the in-group pick would divide by zero.
		return nil
	}
	groups := ByPaperIIClass(profiles)
	all := []PaperIIClass{CSPS, CSPI, CIPS, CIPI}
	next := make(map[PaperIIClass]int)
	pick := func(c PaperIIClass) string {
		g := groups[c]
		if len(g) == 0 {
			for _, alt := range all {
				if len(groups[alt]) > 0 {
					g = groups[alt]
					c = alt
					break
				}
			}
		}
		b := g[next[c]%len(g)]
		next[c]++
		return b
	}
	var mixes []Mix
	for _, a := range all {
		for _, b := range all {
			m := Mix{
				Name: fmt.Sprintf("%s/%s", a, b),
				Apps: []string{pick(a), pick(a), pick(b), pick(b)},
			}
			mixes = append(mixes, m)
		}
	}
	return mixes
}

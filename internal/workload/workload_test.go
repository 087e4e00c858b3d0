package workload

import (
	"sync"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

var (
	dbOnce sync.Once
	dbInst *simdb.DB
	dbErr  error
)

func testDB(t *testing.T) *simdb.DB {
	t.Helper()
	dbOnce.Do(func() {
		sys := arch.DefaultSystemConfig(4)
		dbInst, dbErr = simdb.Build(sys, trace.Suite(), simdb.DefaultBuildOptions())
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbInst
}

func TestCharacterizeKnownBenchmarks(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		bench      string
		memIntense bool
		cacheSens  bool
	}{
		{"mcf", true, true},
		{"omnetpp", true, true},
		{"libquantum", true, false},
		{"lbm", true, false},
		{"bzip2", false, true},
		{"hmmer", false, false},
		{"povray", false, false},
	}
	for _, c := range cases {
		p, err := Characterize(db, c.bench)
		if err != nil {
			t.Fatal(err)
		}
		if p.MemIntense != c.memIntense {
			t.Errorf("%s: MemIntense = %v (MPKI %.2f), want %v",
				c.bench, p.MemIntense, p.BaselineMPKI, c.memIntense)
		}
		if p.CacheSens != c.cacheSens {
			t.Errorf("%s: CacheSens = %v (drop %.2f rel %.2f), want %v",
				c.bench, p.CacheSens, p.MPKIDrop, p.RelDrop, c.cacheSens)
		}
	}
}

func TestParallelismSensitivity(t *testing.T) {
	db := testDB(t)
	sensitive := []string{"libquantum", "lbm", "soplex"}
	insensitive := []string{"mcf", "omnetpp", "hmmer"}
	for _, b := range sensitive {
		p, err := Characterize(db, b)
		if err != nil {
			t.Fatal(err)
		}
		if !p.ParSens {
			t.Errorf("%s: expected parallelism-sensitive (MLP %.2f -> %.2f)",
				b, p.MLPSmall, p.MLPLarge)
		}
	}
	for _, b := range insensitive {
		p, err := Characterize(db, b)
		if err != nil {
			t.Fatal(err)
		}
		if p.ParSens {
			t.Errorf("%s: expected parallelism-insensitive (MLP %.2f -> %.2f)",
				b, p.MLPSmall, p.MLPLarge)
		}
	}
}

func TestAllPaperIClassesPopulated(t *testing.T) {
	db := testDB(t)
	profiles, err := CharacterizeAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 20 {
		t.Fatalf("profiled %d benchmarks", len(profiles))
	}
	groups := ByClass(profiles)
	for c := MemSensitive; c <= CompInsensitive; c++ {
		if len(groups[c]) < 2 {
			t.Errorf("class %s has only %d members", c, len(groups[c]))
		}
	}
}

func TestAllPaperIIClassesPopulated(t *testing.T) {
	db := testDB(t)
	profiles, err := CharacterizeAll(db)
	if err != nil {
		t.Fatal(err)
	}
	groups := ByPaperIIClass(profiles)
	for c := CSPS; c <= CIPI; c++ {
		if len(groups[c]) < 1 {
			t.Errorf("Paper II class %s empty", c)
		}
	}
}

func TestPaperIMixesShape(t *testing.T) {
	db := testDB(t)
	profiles, _ := CharacterizeAll(db)
	mixes := PaperIMixes(profiles, 4, 20)
	if len(mixes) != 20 {
		t.Fatalf("generated %d mixes", len(mixes))
	}
	seen := make(map[string]bool)
	for _, m := range mixes {
		if len(m.Apps) != 4 || len(m.ClassPattern) != 4 {
			t.Fatalf("%s malformed: %+v", m.Name, m)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate mix name %s", m.Name)
		}
		seen[m.Name] = true
		for i, app := range m.Apps {
			p, err := Characterize(db, app)
			if err != nil {
				t.Fatal(err)
			}
			if p.PaperIClass != m.ClassPattern[i] {
				t.Errorf("%s slot %d: app %s is %s, pattern says %s",
					m.Name, i, app, p.PaperIClass, m.ClassPattern[i])
			}
		}
	}
}

func TestPaperIMixes8Core(t *testing.T) {
	db := testDB(t)
	profiles, _ := CharacterizeAll(db)
	mixes := PaperIMixes(profiles, 8, 10)
	if len(mixes) != 10 {
		t.Fatalf("generated %d mixes", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Apps) != 8 {
			t.Fatalf("%s has %d apps", m.Name, len(m.Apps))
		}
	}
}

func TestPaperIMixesRotateWithinCategory(t *testing.T) {
	db := testDB(t)
	profiles, _ := CharacterizeAll(db)
	mixes := PaperIMixes(profiles, 4, 20)
	// The same category appearing many times must not always pick the same
	// benchmark.
	used := make(map[Class]map[string]bool)
	for _, m := range mixes {
		for i, app := range m.Apps {
			c := m.ClassPattern[i]
			if used[c] == nil {
				used[c] = make(map[string]bool)
			}
			used[c][app] = true
		}
	}
	for c, apps := range used {
		if len(apps) < 2 {
			t.Errorf("class %s always picked the same benchmark", c)
		}
	}
}

func TestPaperIIMixes(t *testing.T) {
	db := testDB(t)
	profiles, _ := CharacterizeAll(db)
	mixes := PaperIIMixes(profiles)
	if len(mixes) != 16 {
		t.Fatalf("generated %d Paper II mixes, want 16", len(mixes))
	}
	names := make(map[string]bool)
	for _, m := range mixes {
		if len(m.Apps) != 4 {
			t.Fatalf("%s has %d apps", m.Name, len(m.Apps))
		}
		if names[m.Name] {
			t.Fatalf("duplicate mix %s", m.Name)
		}
		names[m.Name] = true
	}
}

func TestClassStrings(t *testing.T) {
	if MemSensitive.String() != "MS" || CompInsensitive.String() != "CI" {
		t.Fatal("Paper I class names wrong")
	}
	if CSPS.String() != "CS+PS" || CIPI.String() != "CI+PI" {
		t.Fatal("Paper II class names wrong")
	}
	if Class(9).String() == "" || PaperIIClass(9).String() == "" {
		t.Fatal("unknown classes must render")
	}
}

func TestCharacterizeUnknown(t *testing.T) {
	db := testDB(t)
	if _, err := Characterize(db, "nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

package workload

import (
	"reflect"
	"sort"
	"testing"
)

func TestPaperIMixesEmptyProfiles(t *testing.T) {
	// Degenerate/empty databases produce no profiles; the mix builders must
	// return an empty list instead of panicking with a zero modulus in the
	// in-group pick (the seed behaviour).
	if m := PaperIMixes(nil, 4, 20); len(m) != 0 {
		t.Fatalf("PaperIMixes(nil) = %v, want empty", m)
	}
	if m := PaperIMixes([]*Profile{}, 8, 5); len(m) != 0 {
		t.Fatalf("PaperIMixes(empty) = %v, want empty", m)
	}
	if m := PaperIIMixes(nil); len(m) != 0 {
		t.Fatalf("PaperIIMixes(nil) = %v, want empty", m)
	}
}

func TestPaperIMixesSingleProfile(t *testing.T) {
	// One profiled benchmark: every pick falls back to it, whatever class
	// pattern is requested.
	p := []*Profile{{Bench: "only", PaperIClass: CompInsensitive}}
	mixes := PaperIMixes(p, 4, 3)
	if len(mixes) != 3 {
		t.Fatalf("got %d mixes, want 3", len(mixes))
	}
	for _, m := range mixes {
		for _, app := range m.Apps {
			if app != "only" {
				t.Fatalf("fallback picked %q", app)
			}
		}
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	benches := []string{"a", "b", "c"}
	opt := ArrivalOptions{Jobs: 50, MeanInterarrivalSec: 2.5, Seed: 7}
	x := PoissonArrivals(benches, opt)
	y := PoissonArrivals(benches, opt)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("arrival trace not deterministic")
	}
	if len(x) != 50 {
		t.Fatalf("got %d arrivals, want 50", len(x))
	}
	prev := 0.0
	var sum float64
	for i, a := range x {
		if a.ID != i {
			t.Fatalf("arrival %d has ID %d", i, a.ID)
		}
		if a.TimeSec <= prev {
			t.Fatalf("arrivals not strictly ordered at %d", i)
		}
		sum += a.TimeSec - prev
		prev = a.TimeSec
		if a.Bench != "a" && a.Bench != "b" && a.Bench != "c" {
			t.Fatalf("arrival drew unknown bench %q", a.Bench)
		}
	}
	// The sample mean of 50 exponential draws should be within a factor of
	// two of the configured mean (loose, deterministic bound).
	if mean := sum / 50; mean < 1.25 || mean > 5 {
		t.Fatalf("sample mean interarrival %.2f implausible for mean 2.5", mean)
	}

	if z := PoissonArrivals(benches, ArrivalOptions{Jobs: 50, MeanInterarrivalSec: 2.5, Seed: 8}); reflect.DeepEqual(x, z) {
		t.Fatal("different seeds produced the same trace")
	}
	if PoissonArrivals(nil, opt) != nil {
		t.Fatal("empty population must yield no arrivals")
	}
	if PoissonArrivals(benches, ArrivalOptions{Jobs: 0}) != nil {
		t.Fatal("zero jobs must yield no arrivals")
	}
}

func TestClassArrivalsFiltersPopulation(t *testing.T) {
	profiles := []*Profile{
		{Bench: "ms1", PaperIClass: MemSensitive},
		{Bench: "ci1", PaperIClass: CompInsensitive},
		{Bench: "ms2", PaperIClass: MemSensitive},
	}
	opt := ArrivalOptions{Jobs: 20, MeanInterarrivalSec: 1, Seed: 3}
	xs := ClassArrivals(profiles, []Class{MemSensitive}, opt)
	if len(xs) != 20 {
		t.Fatalf("got %d arrivals", len(xs))
	}
	for _, a := range xs {
		if a.Bench != "ms1" && a.Bench != "ms2" {
			t.Fatalf("class filter leaked %q", a.Bench)
		}
	}
	if ys := ClassArrivals(profiles, []Class{CompSensitive}, opt); ys != nil {
		t.Fatal("empty filtered population must yield no arrivals")
	}
}

// ClassArrivals draws a Poisson arrival trace whose benchmark population
// is restricted to the given Paper I classes — the open-system analogue of
// the category-patterned mixes (e.g. a cluster fed only cache-sensitive
// work). Profiles outside the classes are ignored; an empty filtered
// population yields no arrivals.
func ClassArrivals(profiles []*Profile, classes []Class, opt ArrivalOptions) []Arrival {
	want := make(map[Class]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	var benches []string
	for _, p := range profiles {
		if want[p.PaperIClass] {
			benches = append(benches, p.Bench)
		}
	}
	sort.Strings(benches) // profile order is caller-defined; fix the draw order
	return PoissonArrivals(benches, opt)
}

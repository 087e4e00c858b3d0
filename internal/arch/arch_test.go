package arch

import (
	"testing"
	"testing/quick"
)

func TestDefaultDVFSTableShape(t *testing.T) {
	tab := DefaultDVFSTable()
	if len(tab) != 25 {
		t.Fatalf("table length = %d, want 25", len(tab))
	}
	if tab[0].FreqGHz != 0.8 || tab[len(tab)-1].FreqGHz != 3.2 {
		t.Fatalf("frequency endpoints wrong: %v .. %v", tab[0].FreqGHz, tab[len(tab)-1].FreqGHz)
	}
	for i := 1; i < len(tab); i++ {
		if tab[i].FreqGHz <= tab[i-1].FreqGHz {
			t.Fatalf("frequencies not increasing at %d", i)
		}
		if tab[i].VoltV <= tab[i-1].VoltV {
			t.Fatalf("voltages not increasing at %d", i)
		}
	}
}

func TestDVFSIndex(t *testing.T) {
	tab := DefaultDVFSTable()
	if i := tab.ClosestIndex(2.05); tab[i].FreqGHz != 2.0 {
		t.Fatalf("ClosestIndex(2.05) -> %v GHz", tab[i].FreqGHz)
	}
	if i := tab.ClosestIndex(99); tab[i].FreqGHz != 3.2 {
		t.Fatalf("ClosestIndex(99) -> %v GHz", tab[i].FreqGHz)
	}
}

func TestDefaultSystemConfigValid(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		cfg := DefaultSystemConfig(n)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("DefaultSystemConfig(%d) invalid: %v", n, err)
		}
		if cfg.BaselineWays() != cfg.LLC.Assoc/n {
			t.Fatalf("baseline ways inconsistent for %d cores", n)
		}
		if cfg.BaselineWays() < 2 {
			t.Fatalf("baseline ways too small for %d cores: %d", n, cfg.BaselineWays())
		}
	}
}

func TestBaselineSetting(t *testing.T) {
	cfg := DefaultSystemConfig(4)
	bs := cfg.BaselineSetting()
	if bs.Size != SizeMedium {
		t.Fatalf("baseline size = %v", bs.Size)
	}
	if cfg.DVFS[bs.FreqIdx].FreqGHz != 2.0 {
		t.Fatalf("baseline frequency = %v", cfg.DVFS[bs.FreqIdx].FreqGHz)
	}
	if bs.Ways != 4 {
		t.Fatalf("baseline ways = %d, want 4", bs.Ways)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := DefaultSystemConfig(4)

	cases := []struct {
		name   string
		mutate func(*SystemConfig)
	}{
		{"zero cores", func(c *SystemConfig) { c.NumCores = 0 }},
		{"empty dvfs", func(c *SystemConfig) { c.DVFS = nil }},
		{"bad baseline idx", func(c *SystemConfig) { c.BaselineFreqIdx = 99 }},
		{"assoc < cores", func(c *SystemConfig) { c.LLC.Assoc = 2 }},
		{"assoc not divisible", func(c *SystemConfig) { c.LLC.Assoc = 18 }},
		{"zero sets", func(c *SystemConfig) { c.LLC.Sets = 0 }},
		{"bad sampling", func(c *SystemConfig) { c.LLC.SampleIn = 7 }},
		{"zero latency", func(c *SystemConfig) { c.Mem.LatencyNs = 0 }},
		{"non-monotone dvfs", func(c *SystemConfig) {
			d := append(DVFSTable(nil), c.DVFS...)
			d[3].FreqGHz = d[2].FreqGHz
			c.DVFS = d
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestCoreParamsOrdering(t *testing.T) {
	p := DefaultCoreParams()
	if !(p[SizeSmall].ROB < p[SizeMedium].ROB && p[SizeMedium].ROB < p[SizeLarge].ROB) {
		t.Fatal("ROB sizes not increasing with core size")
	}
	if !(p[SizeSmall].MSHRs <= p[SizeMedium].MSHRs && p[SizeMedium].MSHRs < p[SizeLarge].MSHRs) {
		t.Fatal("MSHR counts not non-decreasing with core size")
	}
	if !(p[SizeSmall].CapFactor < p[SizeMedium].CapFactor && p[SizeMedium].CapFactor < p[SizeLarge].CapFactor) {
		t.Fatal("capacitance factors not increasing with core size")
	}
	if p[SizeMedium].CapFactor != 1.0 || p[SizeMedium].LeakFactor != 1.0 {
		t.Fatal("medium core must be the normalization point")
	}
}

func TestCacheSizeBytes(t *testing.T) {
	c := CacheParams{Sets: 1024, Assoc: 16, LineB: 64}
	if got := c.SizeBytes(); got != 1024*16*64 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestSettingString(t *testing.T) {
	s := Setting{Size: SizeLarge, FreqIdx: 3, Ways: 5}
	if s.String() != "large@f3/5w" {
		t.Fatalf("String = %q", s.String())
	}
	if CoreSize(9).String() == "" {
		t.Fatal("unknown core size should still render")
	}
}

func TestQuickClosestIndexReturnsNearest(t *testing.T) {
	tab := DefaultDVFSTable()
	f := func(raw uint16) bool {
		freq := float64(raw) / 65535 * 5 // 0..5 GHz
		i := tab.ClosestIndex(freq)
		d := tab[i].FreqGHz - freq
		if d < 0 {
			d = -d
		}
		for _, op := range tab {
			dd := op.FreqGHz - freq
			if dd < 0 {
				dd = -dd
			}
			if dd < d-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SizeBytes returns the total LLC capacity.
func (c CacheParams) SizeBytes() int { return c.Sets * c.Assoc * c.LineB }

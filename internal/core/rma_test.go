package core

import (
	"strings"
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

func managerFor(scheme Scheme, kind ModelKind) (*Manager, arch.SystemConfig) {
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys:    sys,
		Power:  power.DefaultParams(sys),
		Scheme: scheme,
		Model:  kind,
	})
	return m, sys
}

// statsForCore builds fake statistics for a given core id with a chosen
// cache sensitivity.
func statsForCore(sys arch.SystemConfig, core int, sensitive bool) *IntervalStats {
	var profile []float64
	if sensitive {
		profile = missProfile(sys.LLC.Assoc, 2.5e6, 2e5, 12)
	} else {
		profile = missProfile(sys.LLC.Assoc, 6e5, 5.5e5, 2)
	}
	st := fakeStats(sys, 2.5, 12, profile, 2)
	st.Core = core
	return st
}

func TestStaticSchemeNeverChanges(t *testing.T) {
	m, sys := managerFor(SchemeStatic, Model2)
	if _, ok := m.Decide(0, statsForCore(sys, 0, true)); ok {
		t.Fatal("static scheme produced a decision")
	}
	for _, s := range m.Settings() {
		if s != sys.BaselineSetting() {
			t.Fatal("static scheme moved a setting")
		}
	}
}

func TestCoordinatedWaitsForAllCores(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	for core := 0; core < 3; core++ {
		if _, ok := m.Decide(core, statsForCore(sys, core, true)); ok {
			t.Fatalf("decision before all cores reported (core %d)", core)
		}
	}
	if _, ok := m.Decide(3, statsForCore(sys, 3, true)); !ok {
		t.Fatal("no decision once all cores reported")
	}
}

func TestCoordinatedAllocationValid(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	var settings []arch.Setting
	for core := 0; core < 4; core++ {
		settings, _ = m.Decide(core, statsForCore(sys, core, core%2 == 0))
	}
	if settings == nil {
		t.Fatal("no settings")
	}
	sum := 0
	for _, s := range settings {
		if s.Ways < 1 {
			t.Fatalf("core has %d ways", s.Ways)
		}
		if s.Size != sys.BaselineSize {
			t.Fatal("RM2 must not change core size")
		}
		sum += s.Ways
	}
	if sum != sys.LLC.Assoc {
		t.Fatalf("ways sum %d != associativity %d", sum, sys.LLC.Assoc)
	}
}

func TestCoordinatedFavorsSensitiveCores(t *testing.T) {
	// Two cache-sensitive cores plus two insensitive ones: the sensitive
	// cores should end up with at least the baseline share.
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	var settings []arch.Setting
	for core := 0; core < 4; core++ {
		settings, _ = m.Decide(core, statsForCore(sys, core, core < 2))
	}
	for core := 0; core < 2; core++ {
		if settings[core].Ways < sys.BaselineWays() {
			t.Fatalf("sensitive core %d got %d ways (< baseline %d)",
				core, settings[core].Ways, sys.BaselineWays())
		}
	}
	if settings[0].Ways+settings[1].Ways <= settings[2].Ways+settings[3].Ways {
		t.Fatal("sensitive cores did not receive more cache")
	}
}

func TestCoordinatedMeetsPredictedQoS(t *testing.T) {
	// Whatever the manager picks must satisfy its own QoS prediction.
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	pred := Predictor{Sys: &sys, Power: power.DefaultParams(sys), Kind: Model2}
	all := make([]*IntervalStats, 4)
	var settings []arch.Setting
	for core := 0; core < 4; core++ {
		all[core] = statsForCore(sys, core, core%2 == 0)
		settings, _ = m.Decide(core, all[core])
	}
	for core, s := range settings {
		target := pred.QoSTargetIPS(all[core], 0)
		if got := pred.IPS(all[core], s); got < target*(1-1e-9) {
			t.Fatalf("core %d: chosen setting predicted IPS %v < target %v",
				core, got, target)
		}
	}
}

func TestRM3CanShrinkCore(t *testing.T) {
	// A phase with plenty of MLP upside and low ILP lets RM3 pick a
	// non-baseline core size somewhere; at minimum it must produce valid
	// settings with sizes within range.
	m, sys := managerFor(SchemeCoordCoreDVFSCache, Model3)
	var settings []arch.Setting
	for core := 0; core < 4; core++ {
		settings, _ = m.Decide(core, statsForCore(sys, core, true))
	}
	if settings == nil {
		t.Fatal("no settings")
	}
	sum := 0
	for _, s := range settings {
		if s.Size < arch.SizeSmall || s.Size > arch.SizeLarge {
			t.Fatalf("invalid size %v", s.Size)
		}
		sum += s.Ways
	}
	if sum != sys.LLC.Assoc {
		t.Fatalf("ways sum %d", sum)
	}
}

func TestDVFSOnlyKeepsEqualPartition(t *testing.T) {
	m, sys := managerFor(SchemeDVFSOnly, Model2)
	settings, ok := m.Decide(1, statsForCore(sys, 1, true))
	if !ok {
		t.Fatal("DVFS-only made no decision")
	}
	for _, s := range settings {
		if s.Ways != sys.BaselineWays() {
			t.Fatal("DVFS-only changed the partition")
		}
	}
}

func TestDVFSOnlyCannotScaleBelowBaselineWithoutSlack(t *testing.T) {
	// With the QoS target equal to predicted baseline performance and no
	// cache change, the minimum feasible frequency is the baseline one.
	m, sys := managerFor(SchemeDVFSOnly, Model2)
	settings, ok := m.Decide(0, statsForCore(sys, 0, true))
	if !ok {
		t.Fatal("no decision")
	}
	if settings[0].FreqIdx != sys.BaselineFreqIdx {
		t.Fatalf("DVFS-only moved frequency to %d without slack", settings[0].FreqIdx)
	}
}

func TestDVFSOnlySavesWithSlack(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys:    sys,
		Power:  power.DefaultParams(sys),
		Scheme: SchemeDVFSOnly,
		Model:  Model2,
		Slack:  []float64{0.4, 0.4, 0.4, 0.4},
	})
	settings, ok := m.Decide(0, statsForCore(sys, 0, true))
	if !ok {
		t.Fatal("no decision")
	}
	if settings[0].FreqIdx >= sys.BaselineFreqIdx {
		t.Fatal("DVFS-only did not exploit slack")
	}
}

func TestPartitionOnlyKeepsBaselineFrequency(t *testing.T) {
	m, sys := managerFor(SchemePartitionOnly, Model2)
	var settings []arch.Setting
	for core := 0; core < 4; core++ {
		settings, _ = m.Decide(core, statsForCore(sys, core, core == 0))
	}
	if settings == nil {
		t.Fatal("no settings")
	}
	for _, s := range settings {
		if s.FreqIdx != sys.BaselineFreqIdx || s.Size != sys.BaselineSize {
			t.Fatal("RM1 changed frequency or size")
		}
	}
}

func TestManagerSlackValidation(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on slack length mismatch")
		}
	}()
	NewManager(Config{Sys: sys, Power: power.DefaultParams(sys), Slack: []float64{1}})
}

func TestSchemeStrings(t *testing.T) {
	names := map[Scheme]string{
		SchemeStatic:             "Static",
		SchemeDVFSOnly:           "DVFS-only",
		SchemePartitionOnly:      "RM1-Partitioning",
		SchemeCoordDVFSCache:     "RM2-DVFS+Cache",
		SchemeCoordCoreDVFSCache: "RM3-Core+DVFS+Cache",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(99).String() == "" || ModelKind(99).String() == "" {
		t.Fatal("unknown enums must render")
	}
	for _, k := range []ModelKind{Model1, Model2, Model3} {
		if k.String() == "Model?" {
			t.Fatal("model name missing")
		}
	}
}

// TestSchemeVocabulary: every short name parses back to its scheme in any
// letter case, aliases resolve, the byte form agrees without allocating
// for lowercase names, and only RM3 defaults to Model3.
func TestSchemeVocabulary(t *testing.T) {
	names := SchemeShortNames()
	if len(names) != int(SchemeUCPDVFS)+1 {
		t.Fatalf("%d short names for %d schemes", len(names), SchemeUCPDVFS+1)
	}
	for i, name := range names {
		s := Scheme(i)
		if s.ShortName() != name {
			t.Errorf("%v.ShortName() = %q, want %q", s, s.ShortName(), name)
		}
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			if got, err := ParseScheme(spelled); err != nil || got != s {
				t.Errorf("ParseScheme(%q) = %v, %v", spelled, got, err)
			}
			if got, err := ParseSchemeBytes([]byte(spelled)); err != nil || got != s {
				t.Errorf("ParseSchemeBytes(%q) = %v, %v", spelled, got, err)
			}
		}
		want := Model2
		if s == SchemeCoordCoreDVFSCache {
			want = Model3
		}
		if s.DefaultModel() != want {
			t.Errorf("%v.DefaultModel() = %v, want %v", s, s.DefaultModel(), want)
		}
	}
	for alias, want := range map[string]Scheme{
		"": SchemeCoordDVFSCache, "dvfs-only": SchemeDVFSOnly, "Partition": SchemePartitionOnly,
		"coord": SchemeCoordDVFSCache, "CORE": SchemeCoordCoreDVFSCache, "uncoordinated": SchemeUCPDVFS,
	} {
		if got, err := ParseScheme(alias); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	if Scheme(-1).ShortName() != "" || Scheme(len(names)).ShortName() != "" {
		t.Error("an unknown scheme has a short name")
	}
	_, err := ParseScheme("rm4")
	if err == nil || err.Error() != `unknown scheme "rm4" (want static, dvfs, rm1, rm2, rm3 or ucp)` {
		t.Errorf("ParseScheme(rm4) error %v", err)
	}
	name := []byte("rm3")
	if n := testing.AllocsPerRun(100, func() { ParseSchemeBytes(name) }); n != 0 {
		t.Errorf("ParseSchemeBytes allocates %v times per lowercase name", n)
	}
}

func TestManagerInvocationCount(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	for core := 0; core < 4; core++ {
		m.Decide(core, statsForCore(sys, core, true))
	}
	if m.Invocations != 4 {
		t.Fatalf("Invocations = %d, want 4", m.Invocations)
	}
}

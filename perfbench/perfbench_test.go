package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, and the traced pass, in smoke mode
// against freshly built binaries, and checks that the last output line
// parses and names every declared metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds qosrmad and starts servers")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloads)
	}

	bin := t.TempDir()
	build := func(dir, out, pkg string) {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	build("..", "qosrmad", "./cmd/qosrmad")
	build(".", "perfbench", ".")

	run := func(workload, trace string, want []specMetric) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "perfbench"), "-bin", bin, "-state", t.TempDir(), "--smoke",
			"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
		cmd.Dir = ".."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace=%s: last line does not parse: %v", workload, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%s: %d metrics, want %d", workload, trace, len(res.Metrics), len(want))
		}
		for _, w := range want {
			got, ok := res.Metrics[w.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%s: metric %s missing", workload, trace, w.Name)
			case got.Unit != w.Unit:
				t.Errorf("%s trace=%s: %s has unit %q, want %q", workload, trace, w.Name, got.Unit, w.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s trace=%s: %s = %v", workload, trace, w.Name, got.Value)
			}
		}
	}
	for _, w := range names {
		run(w, "0", spec.EndToEnd)
	}
	run(names[0], "1", spec.PerLayer)
}

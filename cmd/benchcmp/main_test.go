package main

import (
	"bytes"
	"strings"
	"testing"
)

const baseOut = `goos: linux
BenchmarkFast   	     100	      1000 ns/op	       0 B/op
BenchmarkFast   	     100	      1010 ns/op	       0 B/op
BenchmarkFast   	     100	       990 ns/op	       0 B/op
BenchmarkFast   	     100	      1020 ns/op	       0 B/op
BenchmarkNoisy  	      10	      1000 ns/op
BenchmarkNoisy  	      10	      1500 ns/op
BenchmarkNoisy  	      10	       700 ns/op
BenchmarkNoisy  	      10	      1200 ns/op
BenchmarkGone   	      10	        50 ns/op
PASS
`

const newOut = `BenchmarkFast-2  	     200	       500 ns/op	       0 B/op
BenchmarkFast-2  	     200	       510 ns/op	       0 B/op
BenchmarkNoisy-2 	      10	      1150 ns/op
BenchmarkNoisy-2 	      10	      1100 ns/op
BenchmarkAdded-2 	      10	        70 ns/op	        3.00 fallbacks
`

// TestReport pins the pairing across a -GOMAXPROCS suffix and the rule
// that a ratio counts as a change only outside the baseline's IQR.
func TestReport(t *testing.T) {
	base, err := parse(strings.NewReader(baseOut))
	if err != nil {
		t.Fatal(err)
	}
	next, err := parse(strings.NewReader(newOut))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(base["Fast"]); got != 4 {
		t.Fatalf("parsed %d Fast samples, want 4", got)
	}
	var out bytes.Buffer
	if err := report(&out, base, next); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Fast":  "faster",       // 0.50x, baseline IQR about 1.5 %
		"Noisy": "~",            // 1.02x, baseline IQR about 33 %
		"Gone":  "only in base", // no new samples
		"Added": "only in new",  // no base samples
	}
	lines := strings.Split(out.String(), "\n")
	for name, verdict := range want {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") {
				found = true
				if !strings.HasSuffix(strings.TrimSpace(l), verdict) {
					t.Errorf("%s: got line %q, want verdict %q", name, l, verdict)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from report:\n%s", name, out.String())
		}
	}
}

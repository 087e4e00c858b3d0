// Command benchcmp compares two `go test -bench` outputs without network
// access or modules beyond the standard library: `make benchdiff` runs it
// when benchstat is not installed.
//
//	benchcmp benchbase.txt bench.new.txt
//
// For every benchmark in either file it prints the median ns/op of each
// side, their ratio (new/base) and the baseline's own spread: the distance
// between its quartiles relative to its median. A ratio is flagged as
// faster or slower only when it departs from 1 by more than that spread;
// otherwise the change is within the baseline's noise and is marked "~".
// A trailing -GOMAXPROCS suffix is ignored when pairing names.
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcmp: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: benchcmp BASE NEW")
	}
	base, err := parseFile(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	next, err := parseFile(os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	if err := report(os.Stdout, base, next); err != nil {
		log.Fatal(err)
	}
}

func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return samples, nil
}

// procsSuffix is the -GOMAXPROCS suffix `go test` appends to names when
// GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse collects the ns/op samples of every benchmark result line, keyed
// by the benchmark name without its Benchmark prefix and procs suffix.
func parse(r io.Reader) (map[string][]float64, error) {
	samples := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. a log line naming a benchmark)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op value %q in %q", fields[i], sc.Text())
			}
			name := procsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
			samples[name] = append(samples[name], v)
		}
	}
	return samples, sc.Err()
}

// quantile is the linearly interpolated p-quantile of sorted xs.
func quantile(xs []float64, p float64) float64 {
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// summarize returns the median of xs and the distance between its
// quartiles relative to that median.
func summarize(xs []float64) (med, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = quantile(s, 0.5)
	return med, (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// verdict marks a new/base ratio as a change only when it leaves the
// baseline's own quartile spread.
func verdict(ratio, spread float64) string {
	switch {
	case ratio < 1-spread:
		return "faster"
	case ratio > 1+spread:
		return "slower"
	default:
		return "~"
	}
}

func report(w io.Writer, base, next map[string][]float64) error {
	names := make([]string, 0, len(base)+len(next))
	for name := range base {
		names = append(names, name)
	}
	for name := range next {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbase ns/op\tnew ns/op\tnew/base\tbase IQR\tverdict")
	for _, name := range names {
		b, n := base[name], next[name]
		switch {
		case len(n) == 0:
			bm, _ := summarize(b)
			fmt.Fprintf(tw, "%s\t%.4g\t-\t-\t-\tonly in base\n", name, bm)
		case len(b) == 0:
			nm, _ := summarize(n)
			fmt.Fprintf(tw, "%s\t-\t%.4g\t-\t-\tonly in new\n", name, nm)
		default:
			bm, spread := summarize(b)
			nm, _ := summarize(n)
			ratio := nm / bm
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.3fx\t±%.1f%%\t%s\n", name, bm, nm, ratio, 100*spread, verdict(ratio, spread))
		}
	}
	return tw.Flush()
}

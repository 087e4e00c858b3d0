// Command qosrmavet runs the repo-specific static-analysis suite over
// the whole module: determinism, noalloc, shardowned, ctxdeadline,
// exhaustive and testonly checks (see internal/analysis and
// docs/analysis.md).
//
// Usage:
//
//	qosrmavet [flags] [packages]
//
// The package arguments are accepted for symmetry with go vet but the
// suite always analyses the entire module containing -C (the checks are
// whole-module invariants; analysing a subset would silently weaken
// them).
//
// Flags:
//
//	-C dir        directory inside the target module (default ".")
//	-checks list  comma-separated subset of checks to run (default all)
//	-escape       diff compiler escape analysis for //qosrma:noalloc
//	              functions against the committed baseline instead of
//	              running the analyzers
//	-baseline f   escape baseline file (default internal/analysis/escape.baseline)
//	-update       with -escape: rewrite the baseline from the current tree
//
// Exit status is 1 when any unsuppressed finding (or escape diff)
// remains, 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qosrma/internal/analysis"
)

func main() {
	var (
		dir      = flag.String("C", ".", "directory inside the target module")
		checks   = flag.String("checks", "", "comma-separated subset of checks (default all)")
		escape   = flag.Bool("escape", false, "diff escape analysis against the baseline")
		baseline = flag.String("baseline", "internal/analysis/escape.baseline", "escape baseline file, relative to the module root")
		update   = flag.Bool("update", false, "with -escape: rewrite the baseline")
	)
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	if *escape {
		diff, err := analysis.EscapeDiff(root, pkgs, filepath.Join(root, *baseline), *update)
		if err != nil {
			fatal(err)
		}
		if *update {
			fmt.Fprintf(os.Stderr, "qosrmavet: escape baseline updated\n")
			return
		}
		if len(diff) > 0 {
			fmt.Fprintf(os.Stderr, "qosrmavet: escape analysis drifted from %s (re-run with -update if intended):\n", *baseline)
			for _, d := range diff {
				fmt.Println(d)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "qosrmavet: escape analysis matches baseline\n")
		return
	}

	var sel []string
	if *checks != "" {
		sel = strings.Split(*checks, ",")
	}
	diags := analysis.Run(pkgs, sel)
	for _, d := range diags {
		// Print positions relative to the module root so output is
		// stable across checkouts.
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qosrmavet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "qosrmavet: %d packages clean\n", len(pkgs))
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qosrmavet: %v\n", err)
	os.Exit(2)
}

// Command viampi-vet runs the invariant-enforcing analyzer suite
// (internal/analysis) over the module and reports violations with
// file:line positions.
//
// Usage:
//
//	viampi-vet [-root dir] [-rules layering,determinism,...] [-json]
//	viampi-vet -explain <rule>
//	viampi-vet -list | -rules
//
// Exit status is 0 when the tree is clean, 1 when violations were found,
// 2 on usage or load errors. Output is deterministic: diagnostics are
// sorted by (file, line, column, rule) in both text and -json modes, and
// all rendering goes through the analysis package (RenderText/RenderJSON),
// which the regression tests pin byte-for-byte; wall-clock timing (-json
// mode) goes to stderr so stdout stays byte-stable. The same analyzers also
// run inside `go test ./internal/analysis/...` (the selfcheck), so CI
// cannot drift from what this command reports. Policy entries that match
// nothing in the module are reported on stderr as stale — the selfcheck
// fails on them, so a suppression cannot outlive the code it excused.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"viampi/internal/analysis"
)

func main() {
	// A bare trailing -rules lists the rules (the flag package would demand
	// a value); -rules with a value keeps the subset behavior below.
	if n := len(os.Args); n > 1 && (os.Args[n-1] == "-rules" || os.Args[n-1] == "--rules") {
		printRules(os.Stdout)
		return
	}
	root := flag.String("root", ".", "module root to analyze (directory containing go.mod)")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	explain := flag.String("explain", "", "print why the named rule exists and exit")
	list := flag.Bool("list", false, "list available rules and exit")
	flag.Parse()

	if *list {
		printRules(os.Stdout)
		return
	}
	if *explain != "" {
		a := analysis.ByName(*explain)
		if a == nil {
			unknownRule(*explain)
		}
		// The header line is the same Doc string -list prints, so the two
		// can never disagree about what a rule does.
		fmt.Printf("%s — %s\n\n%s\n", a.Name, a.Doc, a.Explain)
		return
	}

	loadStart := time.Now()
	mod, err := analysis.LoadModule(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viampi-vet: %v\n", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)
	policy := analysis.DefaultPolicy()

	for _, w := range analysis.StalePolicy(mod, policy) {
		fmt.Fprintf(os.Stderr, "viampi-vet: stale policy: %s\n", w)
	}

	selected := analysis.Analyzers()
	if *rules != "" {
		selected = nil
		for _, name := range strings.Split(*rules, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				unknownRule(name)
			}
			selected = append(selected, a)
		}
	}

	analyzeStart := time.Now()
	var ds []analysis.Diagnostic
	for _, a := range selected {
		ds = append(ds, a.Run(mod, policy)...)
	}
	analysis.SortDiagnostics(ds)
	analyzeTime := time.Since(analyzeStart)

	if *jsonOut {
		out, err := analysis.RenderJSON(ds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "viampi-vet: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		// Timing goes to stderr: stdout is pinned byte-deterministic by
		// the render tests, and wall-clock numbers never are.
		fmt.Fprintf(os.Stderr, "viampi-vet: timing load=%s analyze=%s rules=%d packages=%d\n",
			loadTime.Round(time.Millisecond), analyzeTime.Round(time.Millisecond), len(selected), len(mod.Pkgs))
	} else {
		os.Stdout.WriteString(analysis.RenderText(ds))
		if len(ds) == 0 {
			fmt.Printf("viampi-vet: %d packages clean\n", len(mod.Pkgs))
		}
	}
	if len(ds) > 0 {
		os.Exit(1)
	}
}

// printRules writes the per-rule one-line summaries (shared with the
// -explain header via analysis.RuleSummaries).
func printRules(w *os.File) {
	for _, line := range analysis.RuleSummaries() {
		fmt.Fprintln(w, line)
	}
}

// unknownRule reports a bad -rules/-explain argument, lists what exists,
// and exits 2.
func unknownRule(name string) {
	fmt.Fprintf(os.Stderr, "viampi-vet: unknown rule %q; available rules:\n", strings.TrimSpace(name))
	for _, line := range analysis.RuleSummaries() {
		fmt.Fprintf(os.Stderr, "  %s\n", line)
	}
	os.Exit(2)
}

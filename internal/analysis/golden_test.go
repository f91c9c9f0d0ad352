package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rules.golden, testdata/hotset.golden and testdata/digests.golden from the live tree")

// ruleDoc renders the registry exactly the way the viampi-vet driver does:
// the -list / bare -rules listing first, then every rule's -explain output
// ("name — doc" header, blank line, Explain body). Pinning this byte-for-
// byte means renaming a rule, rewording a Doc line, or dropping an Explain
// paragraph shows up as a reviewable golden diff, not a silent help drift.
func ruleDoc() string {
	var b strings.Builder
	for _, line := range RuleSummaries() {
		fmt.Fprintln(&b, line)
	}
	for _, a := range Analyzers() {
		fmt.Fprintf(&b, "\n== explain %s ==\n", a.Name)
		fmt.Fprintf(&b, "%s — %s\n\n%s\n", a.Name, a.Doc, a.Explain)
	}
	return b.String()
}

// TestRuleDocGolden pins the -list, bare -rules, and per-rule -explain text
// for the whole registry against testdata/rules.golden.
// Regenerate deliberately with:
//
//	go test ./internal/analysis/ -run TestRuleDocGolden -update
func TestRuleDocGolden(t *testing.T) {
	got := ruleDoc()
	path := filepath.Join("testdata", "rules.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("rule documentation drifted from testdata/rules.golden at line %d:\n  got  %q\n  want %q\nreview the change, then regenerate with -update", i+1, g, w)
			}
		}
	}
}

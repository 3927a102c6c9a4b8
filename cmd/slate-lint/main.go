// Command slate-lint runs SLATE's custom static analyzers
// (internal/analysis) over the repository and fails the build on
// findings. It is stdlib-only and offline: packages are type-checked
// against module source plus GOROOT, nothing is downloaded.
//
// Usage:
//
//	slate-lint [-C dir] [-run name,name] [-list] [patterns...]
//	slate-lint -audit [-C dir] [patterns...]
//
//	slate-lint ./...                 # everything (the CI gate)
//	slate-lint ./internal/...        # one subtree
//	slate-lint -run lockguard ./...  # a single analyzer
//	slate-lint -audit ./...          # inventory //slate:nolint directives
//
// Diagnostics print as "file:line:col: [analyzer] message"; the exit
// status is 1 when there are findings, 2 on usage or load errors.
// Deliberate exceptions are annotated in the source with
// "//slate:nolint analyzer -- reason"; -audit lists them all and fails
// when a suppression is missing its reason tail.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/servicelayernetworking/slate/internal/analysis"
)

func main() {
	var (
		dir   = flag.String("C", ".", "module root to lint from")
		run   = flag.String("run", "", "comma-separated analyzer names (default: all)")
		list  = flag.Bool("list", false, "list registered analyzers and exit")
		audit = flag.Bool("audit", false, "list every //slate:nolint directive; exit 1 if any lacks a -- reason")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *audit {
		runAudit(*dir, flag.Args())
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		found, unknown := analysis.ByName(strings.Split(*run, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "slate-lint: unknown analyzer(s): %s (use -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		analyzers = found
	}

	findings, err := analysis.Run(analysis.Options{
		Dir:       *dir,
		Patterns:  flag.Args(),
		Analyzers: analyzers,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slate-lint: %v\n", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "slate-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// runAudit inventories //slate:nolint directives. Suppressions without
// a recorded reason fail the audit: an exception nobody can triage is
// a future bug.
func runAudit(dir string, patterns []string) {
	entries, err := analysis.Audit(analysis.Options{Dir: dir, Patterns: patterns})
	if err != nil {
		fmt.Fprintf(os.Stderr, "slate-lint: %v\n", err)
		os.Exit(2)
	}
	missing := 0
	for _, e := range entries {
		scope := strings.Join(e.Analyzers, ",")
		if scope == "" {
			scope = "(all)"
		}
		reason := e.Reason
		if reason == "" {
			reason = "<<MISSING REASON>>"
			missing++
		}
		fmt.Printf("%s:%d: %s -- %s\n", e.File, e.Line, scope, reason)
	}
	fmt.Printf("%d suppression(s), %d missing a reason\n", len(entries), missing)
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "slate-lint: %d //slate:nolint directive(s) missing the '-- reason' tail\n", missing)
		os.Exit(1)
	}
}

// Command gpflint runs the gpflint analyzer suite (internal/lint) over
// package patterns or explicit Go files and reports diagnostics in the
// standard file:line:col format. It exits 1 when any diagnostic is reported,
// 2 on load or usage errors — so CI can gate on it directly:
//
//	go run ./cmd/gpflint ./...
//
// Run it from the module root. Explicit .go file arguments are type-checked
// as one synthetic package against the module's dependencies (used by the
// analyzer fixtures and the race-pattern smoke test):
//
//	go run ./cmd/gpflint internal/lint/testdata/racefixture/fixture.go
//
// Findings are suppressed by a comment on the offending line or the line
// above: //lint:ignore gpflint/<analyzer> <reason>. The suite and the
// invariants it guards are documented in DESIGN.md, "Checked invariants".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/gpf-go/gpf/internal/lint"
	"github.com/gpf-go/gpf/internal/lint/loader"
)

func main() {
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gpflint [-list] [-only name,...] <packages or .go files>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Suite()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("gpflint/%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimPrefix(strings.TrimSpace(n), "gpflint/")] = true
		}
		var filtered = analyzers[:0]
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		analyzers = filtered
		if len(analyzers) == 0 {
			fmt.Fprintf(os.Stderr, "gpflint: no analyzers match -only=%s\n", *only)
			os.Exit(2)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	pkgs, err := load(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpflint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpflint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(lint.Format(pkgs[0].Fset, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gpflint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// load resolves the argument list: all-.go-files mode checks them as one
// synthetic package; otherwise the arguments are go list patterns.
func load(args []string) ([]*loader.Package, error) {
	goFiles := true
	for _, a := range args {
		if !strings.HasSuffix(a, ".go") {
			goFiles = false
			break
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if goFiles {
		pkg, err := loader.LoadFiles(cwd, "command-line-arguments", args)
		if err != nil {
			return nil, err
		}
		return []*loader.Package{pkg}, nil
	}
	return loader.Load(cwd, args)
}

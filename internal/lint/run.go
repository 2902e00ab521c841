// Package lint is gpflint: a suite of static analyzers enforcing the
// engine's concurrency and determinism invariants (see DESIGN.md, "Checked
// invariants"). The suite runs from cmd/gpflint and from CI; each analyzer
// guards an invariant that was — or could have been — violated by a real bug
// in this codebase (the PR 1 Repartition shared-counter race being the
// founding example).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"github.com/gpf-go/gpf/internal/lint/analysis"
	"github.com/gpf-go/gpf/internal/lint/loader"
)

// Suite returns the gpflint analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		SharedCapture,
		MapIter,
		CodecErr,
		GoLeak,
	}
}

// ignoreDirective is one parsed `//lint:ignore gpflint/<name>[,...] reason`
// comment. An empty names set means the comment was malformed (and ignored).
type ignoreDirective struct {
	names map[string]bool
}

// ignorePrefix introduces a suppression comment. The reason is mandatory:
// `//lint:ignore gpflint/codecerr best-effort write on the error path`.
const ignorePrefix = "lint:ignore"

// IgnoreDirective is the parsed form of one suppression comment, including
// malformed ones (no analyzer names, or no reason) so the suppression audit
// can reject them instead of silently skipping them.
type IgnoreDirective struct {
	Line   int
	Names  []string // analyzer names with the gpflint/ prefix stripped
	Reason string   // text after the analyzer list; empty when missing
}

// ParseIgnoreDirectives returns every lint:ignore comment in file, in
// source order.
func ParseIgnoreDirectives(fset *token.FileSet, file *ast.File) []IgnoreDirective {
	var out []IgnoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			d := IgnoreDirective{Line: fset.Position(c.Pos()).Line}
			if list, reason, ok := strings.Cut(rest, " "); ok {
				d.Reason = strings.TrimSpace(reason)
				rest = list
			}
			for _, n := range strings.Split(rest, ",") {
				n = strings.TrimPrefix(strings.TrimSpace(n), "gpflint/")
				if n != "" {
					d.Names = append(d.Names, n)
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// parseIgnores maps file line numbers to the well-formed suppression
// directives written on them: an analyzer list and a non-empty reason.
func parseIgnores(fset *token.FileSet, file *ast.File) map[int]ignoreDirective {
	out := make(map[int]ignoreDirective)
	for _, d := range ParseIgnoreDirectives(fset, file) {
		if len(d.Names) == 0 || d.Reason == "" {
			continue
		}
		names := make(map[string]bool, len(d.Names))
		for _, n := range d.Names {
			names[n] = true
		}
		out[d.Line] = ignoreDirective{names: names}
	}
	return out
}

// suppressed reports whether a diagnostic from analyzer name at line is
// covered by a directive on the same line or the line above.
func suppressed(ignores map[int]ignoreDirective, name string, line int) bool {
	for _, l := range [2]int{line, line - 1} {
		if d, ok := ignores[l]; ok && (d.names[name] || d.names["*"]) {
			return true
		}
	}
	return false
}

// Run applies the analyzers to every package, filters suppressed findings,
// and returns the surviving diagnostics sorted by position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ignores := make(map[int]ignoreDirective)
		for _, f := range pkg.Syntax {
			for line, d := range parseIgnores(pkg.Fset, f) {
				ignores[line] = d
			}
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				d.Analyzer = a.Name
				if suppressed(ignores, a.Name, pkg.Fset.Position(d.Pos).Line) {
					return
				}
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("gpflint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	if len(pkgs) > 0 {
		sortDiags(pkgs[0].Fset, diags) // all packages of one load share a FileSet
	}
	return diags, nil
}

func sortDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Offset < pj.Offset
	})
}

// Format renders a diagnostic as "path:line:col: message (gpflint/name)".
func Format(fset *token.FileSet, d analysis.Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s: %s (gpflint/%s)", pos, d.Message, d.Analyzer)
}

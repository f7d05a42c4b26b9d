// Command itv-vet runs the project's static-analysis suite: nine checks
// that enforce the OCS concurrency and failure-handling invariants
// (mortal references, no mutex across RPC, injected clocks, stoppable
// goroutines, errors.Is, metric and event naming, pooled-buffer
// ownership, context propagation).  See internal/lint and the "Static
// invariants" section of DESIGN.md.
//
// Usage:
//
//	itv-vet [flags] [packages]
//
//	itv-vet ./...                 # whole module (the CI gate)
//	itv-vet -json ./... > vet.json
//	itv-vet -checks rawerrcmp ./internal/orb
//	itv-vet -annotate ./...       # GitHub ::error annotations
//	itv-vet -list
//
// Patterns name directories of the module holding the working directory.
// Exit status: 0 clean, 1 findings, 2 operational failure (bad flags or
// patterns, source that does not parse or type-check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"itv/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it lints what args name and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("itv-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		jsonOut  = flags.Bool("json", false, "emit diagnostics as a JSON array (for CI diffing)")
		list     = flags.Bool("list", false, "list registered checks and exit")
		checks   = flags.String("checks", "", "comma-separated checks to run (default: all)")
		annotate = flags.Bool("annotate", false, "also emit findings as GitHub workflow annotations (::error file=...)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name(), c.Doc())
		}
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "itv-vet:", err)
		return 2
	}

	selected, err := lint.ByName(*checks)
	if err != nil {
		return fail(err)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return fail(err)
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		return fail(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		loaded, err := loader.Load(dir)
		if err != nil {
			// A failed load is the hardest state to debug blind; show every
			// line the loader produced (errors.Join renders one per line).
			fmt.Fprintf(stderr, "itv-vet: %s: load failed:\n", dir)
			for _, line := range strings.Split(err.Error(), "\n") {
				fmt.Fprintf(stderr, "itv-vet:   %s\n", line)
			}
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	diags := lint.Run(pkgs, selected)
	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		out, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *annotate {
		// Annotations ride stdout for the workflow-command parser unless
		// JSON already owns it.
		w := stdout
		if *jsonOut {
			w = stderr
		}
		for _, d := range diags {
			file := d.File
			if rel, err := filepath.Rel(loader.ModRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::[%s] %s\n",
				file, d.Line, d.Col, d.Check, annotationEscape(d.Message))
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "itv-vet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// annotationEscape encodes a message for the workflow-command grammar.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

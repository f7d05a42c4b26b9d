// Command itv-vet runs the project's static-analysis suite: eleven checks
// that enforce the OCS concurrency and failure-handling invariants
// (mortal references, no mutex across RPC, injected clocks, stoppable
// goroutines, errors.Is, metric naming, pooled-buffer ownership, context
// propagation, lock ordering).  See internal/lint and the "Static
// invariants" section of DESIGN.md.
//
// Usage:
//
//	itv-vet [flags] [packages]
//
//	itv-vet ./...                 # whole module (the CI gate)
//	itv-vet -json ./... > vet.json
//	itv-vet -checks rawerrcmp -fix ./...
//	itv-vet -since origin/main ./...   # findings only in changed files
//	itv-vet -annotate ./...            # GitHub ::error annotations
//	itv-vet -list
//
// Exit status: 0 clean, 1 findings, 2 operational failure (bad
// patterns, unparsable source).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"itv/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut  = flag.Bool("json", false, "emit diagnostics as a JSON array (for CI diffing)")
		fix      = flag.Bool("fix", false, "mechanically rewrite rawerrcmp findings to errors.Is")
		list     = flag.Bool("list", false, "list registered checks and exit")
		checks   = flag.String("checks", "", "comma-separated checks to run (default: all)")
		typeErrs = flag.Bool("typeerrors", false, "print tolerated type-check errors to stderr")
		since    = flag.String("since", "", "restrict findings to files changed since this git ref (plus untracked files)")
		annotate = flag.Bool("annotate", false, "also emit findings as GitHub workflow annotations (::error file=...)")
	)
	flag.Parse()

	if *list {
		for _, c := range lint.All() {
			fmt.Printf("%-16s %s\n", c.Name(), c.Doc())
		}
		return 0
	}

	selected, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itv-vet:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "itv-vet:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itv-vet:", err)
		return 2
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itv-vet:", err)
		return 2
	}

	var changed map[string]bool
	if *since != "" {
		changed, err = changedSince(loader.ModRoot, *since)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itv-vet: -since:", err)
			return 2
		}
	}

	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			// A failed load is the hardest state to debug blind; show every
			// line the loader produced (errors.Join renders one per line).
			fmt.Fprintf(os.Stderr, "itv-vet: %s: load failed:\n", dir)
			for _, line := range strings.Split(err.Error(), "\n") {
				fmt.Fprintf(os.Stderr, "itv-vet:   %s\n", line)
			}
			return 2
		}
		if *typeErrs {
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "itv-vet: typecheck: %v\n", te)
			}
		}
		pkgs = append(pkgs, pkg)
	}

	if *fix {
		files, err := lint.FixRawErrCmp(pkgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itv-vet: fix:", err)
			return 2
		}
		for _, f := range files {
			fmt.Println("fixed", f)
		}
		return 0
	}

	diags := lint.Run(pkgs, selected)
	if changed != nil {
		kept := diags[:0]
		for _, d := range diags {
			if changed[d.File] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		out, err := json.MarshalIndent(diags, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "itv-vet:", err)
			return 2
		}
		fmt.Printf("%s\n", out)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *annotate {
		// Annotations ride stdout for the workflow-command parser unless
		// JSON already owns it.
		w := os.Stdout
		if *jsonOut {
			w = os.Stderr
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
			fmt.Fprintf(os.Stderr, "itv-vet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// changedSince returns the absolute paths of .go files changed since ref,
// plus untracked ones — the working set a fast local run cares about.
func changedSince(modRoot, ref string) (map[string]bool, error) {
	set := make(map[string]bool)
	collect := func(args ...string) error {
		cmd := exec.Command("git", append([]string{"-C", modRoot}, args...)...)
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
				return fmt.Errorf("git %s: %s", strings.Join(args, " "), strings.TrimSpace(string(ee.Stderr)))
			}
			return fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || !strings.HasSuffix(line, ".go") {
				continue
			}
			set[filepath.Join(modRoot, filepath.FromSlash(line))] = true
		}
		return nil
	}
	if err := collect("diff", "--name-only", ref); err != nil {
		return nil, err
	}
	if err := collect("ls-files", "--others", "--exclude-standard"); err != nil {
		return nil, err
	}
	return set, nil
}

// annotationEscape encodes a message for the workflow-command grammar.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

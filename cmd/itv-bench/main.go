// itv-bench runs the reproduction's experiment suite — one experiment per
// figure/claim in the paper's evaluation — and prints paper-style result
// tables.  See DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
//	go run ./cmd/itv-bench            # all experiments
//	go run ./cmd/itv-bench -only E4   # one experiment
//	go run ./cmd/itv-bench -list      # list experiments
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"itv/internal/experiments"
)

var suite = []struct {
	id, what string
	run      func() *experiments.Table
}{
	{"E1", "Fig. 1/§3.1 topology and admission", experiments.E1Topology},
	{"E2", "Fig. 3/§9.3 application download", experiments.E2AppDownload},
	{"E3", "Fig. 4 movie-open message counts", experiments.E3MovieOpen},
	{"E4", "§9.7 fail-over time vs intervals", experiments.E4Failover},
	{"E5", "§7.1/§7.2.1 audit message scaling", experiments.E5AuditMessages},
	{"E6", "§9.6 linear capacity scaling", experiments.E6Scaling},
	{"E7", "§8.2 recovery storms", experiments.E7RecoveryStorm},
	{"E8", "§5.1/§11 selector policies", experiments.E8Selectors},
	{"E9", "§4.6 name-service behaviour", experiments.E9NameService},
	{"E10", "§3.5.2 MDS crash recovery", experiments.E10MDSCrash},
	{"E11", "§7.1 resource leakage", experiments.E11Leakage},
	{"E12", "§9.3 response times", experiments.E12ResponseTime},
	{"E13", "§9.5 kill/restart invisibility", experiments.E13Restart},
	{"E14", "§9.1 new-service recipe", experiments.E14NewService},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run lists the suite or runs the experiments the flags in args select,
// writing each table and its wall time to w.  It fails on a flag error and
// on an -only that names no experiment.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("itv-bench", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment (e.g. E4)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range suite {
			fmt.Fprintf(w, "  %-4s %s\n", e.id, e.what)
		}
		return nil
	}

	ran := 0
	for _, e := range suite {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		start := time.Now()
		tab := e.run()
		fmt.Fprintln(w, tab.Format())
		fmt.Fprintf(w, "  [%s completed in %v wall time]\n\n", e.id, time.Since(start).Truncate(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment %q; use -list", *only)
	}
	return nil
}

// Package experiments reproduces the paper's evaluation (§9, plus the
// quantitative claims of §3.1 and §7): one function per experiment, each
// returning printable rows.  The itv-bench command prints them, and this
// package's tests check each one's claim.
//
// The paper is an experience report: its "results" are architecture
// figures, interval arithmetic, and scaling arguments rather than result
// tables.  Each experiment here regenerates the dynamic content behind one
// figure or claim; EXPERIMENTS.md records paper-versus-measured for all of
// them.  Time-based results are in simulated seconds on the fake clock, so
// a 25-second fail-over is measured, not waited for.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Row is one printable result line.
type Row struct {
	Cols []string
}

// Table is a titled result set.
type Table struct {
	Title  string
	Header []string
	Rows   []Row
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r.Cols {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r.Cols)
	}
	return b.String()
}

func row(cols ...string) Row { return Row{Cols: cols} }

func secs(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

func num(v int64) string { return fmt.Sprintf("%d", v) }

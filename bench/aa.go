package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAA checks that the benchmark agrees with itself: for each workload it
// runs two interleaved sets (A, B, A, B, ...) of n runs of the same
// program, run k of either set on seed k, and prints each end-to-end
// metric's set medians, interquartile range and bound.  It returns 1 if
// any pair of medians differs by more than the metric's bound or any
// interquartile range exceeds it, 2 if a run could not be made.
func runAA(n int, only string, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "itv-perfbench: %v\n", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
		}
		for i := 0; i < 2*n; i++ {
			res, err := runChild(exe, w.name, int64(i/2+1), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "itv-perfbench: %s run %d: %v\n", w.name, i, err)
				return 2
			}
			if res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "itv-perfbench: %s run %d: %d of %d ops failed\n", w.name, i, res.Failed, res.Attempted)
				status = 1
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("%s: two sets of %d runs of %g s\n", w.name, n, seconds)
		fmt.Printf("  %-20s %14s %14s %8s %8s %8s\n", "metric", "median A", "median B", "apart", "iqr", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			apart := math.Abs(ma-mb) / ma
			iqr := math.Max(iqrShare(a), iqrShare(b))
			verdict := ""
			if apart > d.Bound || iqr > d.Bound {
				verdict = "  FAIL"
				status = 1
			}
			fmt.Printf("  %-20s %14.4f %14.4f %7.2f%% %7.2f%% %7.0f%%%s\n",
				d.Name, ma, mb, 100*apart, 100*iqr, 100*d.Bound, verdict)
		}
	}
	return status
}

// runChild makes one untraced run in a process of its own and parses the
// result from the last line it prints.
func runChild(exe, workload string, seed int64, seconds float64) (*result, error) {
	out, err := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0").Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return &res, nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives, which is what the driver computes.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based position
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(s)
}

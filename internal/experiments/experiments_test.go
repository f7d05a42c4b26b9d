package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// cell fetches a table cell by row/col label for assertions.
func cell(t *testing.T, tab *Table, rowLabel string, col int) string {
	t.Helper()
	for _, r := range tab.Rows {
		if len(r.Cols) > col && r.Cols[0] == rowLabel {
			return r.Cols[col]
		}
	}
	t.Fatalf("table %q has no row %q", tab.Title, rowLabel)
	return ""
}

func parseSecs(t *testing.T, s string) time.Duration {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		t.Fatalf("bad seconds %q: %v", s, err)
	}
	return time.Duration(v * float64(time.Second))
}

func TestE1TopologyShape(t *testing.T) {
	tab := E1Topology()
	t.Log("\n" + tab.Format())
	if got := cell(t, tab, "cluster capacity (3 servers)", 1); got != "450" {
		t.Errorf("cluster capacity = %s, want 450 (3 x 600Mb/s / 4Mb/s)", got)
	}
	if got := cell(t, tab, "concurrent 4 Mb/s streams per settop", 1); !strings.Contains(got, "second denied: true") {
		t.Errorf("per-settop limit not enforced: %s", got)
	}
}

func TestE2DownloadTimes(t *testing.T) {
	tab := E2AppDownload()
	t.Log("\n" + tab.Format())
	// 2 MB at 1 MB/s plus cover: between 2 and 3 seconds.
	small := parseSecs(t, cell(t, tab, "small-app", 3))
	large := parseSecs(t, cell(t, tab, "large-app", 3))
	if small < 2*time.Second || small > 3*time.Second {
		t.Errorf("small app start-up %v, want ~2s", small)
	}
	if large < 4*time.Second || large > 5*time.Second {
		t.Errorf("large app start-up %v, want ~4s", large)
	}
	cover := parseSecs(t, cell(t, tab, "small-app", 2))
	if cover > 500*time.Millisecond {
		t.Errorf("cover %v exceeds the 0.5s bound", cover)
	}
}

func TestE3WarmOpensCheaper(t *testing.T) {
	tab := E3MovieOpen()
	t.Log("\n" + tab.Format())
	cold, _ := strconv.Atoi(cell(t, tab, "first (cold caches)", 1))
	warm, _ := strconv.Atoi(cell(t, tab, "subsequent (warm)", 1))
	if warm >= cold {
		t.Errorf("warm open (%d RPCs) not cheaper than cold (%d)", warm, cold)
	}
	coldNS, _ := strconv.Atoi(cell(t, tab, "first (cold caches)", 2))
	warmNS, _ := strconv.Atoi(cell(t, tab, "subsequent (warm)", 2))
	if warmNS >= coldNS {
		t.Errorf("warm resolutions (%d) not fewer than cold (%d)", warmNS, coldNS)
	}
	// The warm row exactly: the settop's three calls and not one name
	// resolved (§3.4.2) — services hold references the way clients do.  The
	// column is the replicas' own count of resolutions served, so nothing
	// else the name service was asked meanwhile lands in it.  The cold row
	// is 8 / 3 in a fresh process (the settop resolves the MMS and the VOD
	// service, the MMS its Connection Manager; the MDS listing is a list,
	// not a resolution); its settop count reads lower on a -count repeat
	// and a service still settling in can resolve alongside it, so only the
	// three lookups it must make are required of it.
	if warm != 3 || warmNS != 0 {
		t.Errorf("warm open cost %d settop RPCs / %d name resolutions, want 3 / 0", warm, warmNS)
	}
	if coldNS < 3 {
		t.Errorf("cold open resolved %d names, want its 3 lookups", coldNS)
	}
}

func TestE4FailoverBounded(t *testing.T) {
	tab := E4Failover()
	t.Log("\n" + tab.Format())
	for _, r := range tab.Rows {
		if len(r.Cols) < 7 || r.Cols[0] == "paper:" {
			continue
		}
		predicted := parseSecs(t, r.Cols[3])
		measuredMax := parseSecs(t, r.Cols[5])
		trials, _ := strconv.Atoi(r.Cols[6])
		if trials < 3 {
			t.Errorf("setting %v completed only %d trials", r.Cols[:3], trials)
		}
		// Allow election/processing slop of one second beyond the bound.
		if measuredMax > predicted+time.Second {
			t.Errorf("measured max %v exceeds predicted %v for %v", measuredMax, predicted, r.Cols[:3])
		}
	}
}

func TestE5SchemeScaling(t *testing.T) {
	tab := E5AuditMessages()
	t.Log("\n" + tab.Format())
	// RAS at 1000 clients must cost far fewer messages than leases at
	// 1000 clients — the §7.1 design argument.
	var ras8, lease1000 int
	for _, r := range tab.Rows {
		if r.Cols[0] == "RAS peer polling" && r.Cols[1] == "8" {
			ras8, _ = strconv.Atoi(r.Cols[3])
		}
		if r.Cols[0] == "client lease renewal" && r.Cols[2] == "1000" {
			lease1000, _ = strconv.Atoi(r.Cols[3])
		}
	}
	if ras8 <= 0 || lease1000 <= 0 {
		t.Fatal("missing rows")
	}
	if ras8*4 > lease1000 {
		t.Errorf("RAS (8 servers) = %d msgs/min not clearly below leases (1000 clients) = %d", ras8, lease1000)
	}
}

func TestE6LinearScaling(t *testing.T) {
	tab := E6Scaling()
	t.Log("\n" + tab.Format())
	per1, _ := strconv.Atoi(cell(t, tab, "1", 2))
	per3, _ := strconv.Atoi(cell(t, tab, "3", 2))
	if per1 != per3 {
		t.Errorf("per-server capacity changed with cluster size: %d vs %d", per1, per3)
	}
}

func TestE7BackoffReducesLoad(t *testing.T) {
	// The storm window is real time, so the load ratio is statistical;
	// retry the experiment a few times before declaring the mitigation
	// ineffective.  Full recovery, by contrast, must hold on every run.
	reduced := false
	for attempt := 0; attempt < 3 && !reduced; attempt++ {
		tab := E7RecoveryStorm()
		t.Log("\n" + tab.Format())
		var noBackoff, withBackoff int
		for _, r := range tab.Rows {
			if len(r.Cols) >= 4 && (r.Cols[0] == "50" || r.Cols[0] == "200") {
				want := r.Cols[0] + "/" + r.Cols[0]
				if r.Cols[3] != want {
					t.Fatalf("clients did not all recover: %v", r.Cols)
				}
			}
			// Assert on the 50-client row: at 200 clients a slow runtime
			// (race detector) saturates the CPU and flattens the ratio,
			// which is itself §8.2's point about storms.
			if r.Cols[0] != "50" {
				continue
			}
			v, _ := strconv.Atoi(r.Cols[2])
			if r.Cols[1] == "none" {
				noBackoff = v
			} else {
				withBackoff = v
			}
		}
		if noBackoff == 0 || withBackoff == 0 {
			t.Fatal("missing rows")
		}
		reduced = withBackoff*2 <= noBackoff
	}
	if !reduced {
		t.Error("backoff never reduced storm load across 3 attempts")
	}
}

func TestE8SelectorSpread(t *testing.T) {
	tab := E8Selectors()
	t.Log("\n" + tab.Format())
	// The neighborhood selector partitions 4200 callers exactly 700/700.
	if got := cell(t, tab, "neighborhood", 1); got != "700" {
		t.Errorf("neighborhood min = %s, want 700", got)
	}
	if got := cell(t, tab, "neighborhood", 2); got != "700" {
		t.Errorf("neighborhood max = %s, want 700", got)
	}
}

func TestE9MajorityBehaviour(t *testing.T) {
	tab := E9NameService()
	t.Log("\n" + tab.Format())
	if got := cell(t, tab, "minority update refused", 1); got != "true" {
		t.Errorf("minority update refused = %s", got)
	}
	if got := cell(t, tab, "minority local read still served", 1); got != "true" {
		t.Errorf("minority read = %s", got)
	}
}

func TestE10AllPlaybacksRecover(t *testing.T) {
	tab := E10MDSCrash()
	t.Log("\n" + tab.Format())
	injected, _ := strconv.Atoi(cell(t, tab, "crashes injected", 1))
	recovered, _ := strconv.Atoi(cell(t, tab, "playbacks recovered", 1))
	if injected == 0 || recovered != injected {
		t.Errorf("recovered %d of %d crashes", recovered, injected)
	}
	posOK, _ := strconv.Atoi(cell(t, tab, "resumed at/after crash position", 1))
	if posOK != injected {
		t.Errorf("only %d of %d resumed at position", posOK, injected)
	}
}

func TestE11RASBeatsDuration(t *testing.T) {
	tab := E11Leakage()
	t.Log("\n" + tab.Format())
	// Both tables check on a ticker armed at their construction: every 1 s
	// the duration table first sees the 2 h grant past its deadline at
	// 7,201 s, and every TTL/2 the lease table first sees the 30 s lease
	// past its deadline at 45 s.
	if got := cell(t, tab, "duration time-out (2h estimate)", 1); got != "7201.0s" {
		t.Errorf("duration reclaim = %s, want 7201.0s", got)
	}
	if got := cell(t, tab, "client-renewed lease (30s TTL)", 1); got != "45.0s" {
		t.Errorf("lease reclaim = %s, want 45.0s", got)
	}
	duration := parseSecs(t, cell(t, tab, "duration time-out (2h estimate)", 1))
	ras := parseSecs(t, cell(t, tab, "RAS (deployed intervals)", 1))
	if ras >= duration/10 {
		t.Errorf("RAS reclaim %v not dramatically faster than duration scheme %v", ras, duration)
	}
	if ras > 30*time.Second {
		t.Errorf("RAS reclaim %v exceeds the interval arithmetic bound", ras)
	}
}

func TestE12ResponseBounds(t *testing.T) {
	tab := E12ResponseTime()
	t.Log("\n" + tab.Format())
	cover := parseSecs(t, cell(t, tab, "cover latency (max)", 1))
	if cover > 500*time.Millisecond {
		t.Errorf("cover %v over 0.5s", cover)
	}
	maxStart := parseSecs(t, cell(t, tab, "full app start-up (max)", 1))
	if maxStart > 5*time.Second {
		t.Errorf("start-up max %v far over the 2-4s band", maxStart)
	}
}

func TestE13BriefInterruption(t *testing.T) {
	tab := E13Restart()
	t.Log("\n" + tab.Format())
	maxGap := parseSecs(t, cell(t, tab, "max gap (simulated)", 1))
	if maxGap > 5*time.Second {
		t.Errorf("restart gap %v not brief", maxGap)
	}
	// Every kill landed, so the gaps above are ten recoveries, not a
	// vacuous zero.
	if kills, _ := strconv.Atoi(cell(t, tab, "kills", 1)); kills != 10 {
		t.Errorf("%d kills landed, want 10", kills)
	}
}

func TestE14RecipeCompletes(t *testing.T) {
	tab := E14NewService()
	t.Log("\n" + tab.Format())
	if got := cell(t, tab, "6. client resolves and invokes", 1); !strings.Contains(got, "hello orlando") {
		t.Errorf("recipe result = %s", got)
	}
}

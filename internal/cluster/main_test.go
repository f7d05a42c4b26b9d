package cluster

import (
	"os"
	"testing"

	"itv/internal/obs"
)

// TestMain, on a failing run with ITV_FLIGHT_DUMP set (CI does), dumps
// every node's flight-recorder ring as one merged timeline, so the log of a
// flaky failover test carries the causal story, not just the assertion
// message.
func TestMain(m *testing.M) {
	code := m.Run()
	if code != 0 {
		obs.DumpEventsOnFailure(os.Stderr)
	}
	os.Exit(code)
}

package suppress

import (
	"time"

	"golden/internal/clock"
)

var _ clock.Clock

func ok() {
	//lint:ignore sleepyclock measuring real wall-clock on purpose
	time.Sleep(time.Millisecond)

	time.Sleep(time.Millisecond) //lint:ignore sleepyclock same-line suppression

	//lint:ignore all blanket suppression with a reason
	time.Sleep(time.Millisecond)

	//lint:ignore rawerrcmp wrong check name does not suppress
	time.Sleep(time.Millisecond) // want "time.Sleep"
}

// A directive that suppresses nothing, or names no registered check, is
// itself a finding: left in place it would hide the next real one.
func stale() {
	//lint:ignore sleepyclock nothing below reads the clock // want "suppresses nothing"
	_ = 0

	//lint:ignore nosuchcheck a misspelt check never suppresses anything // want "unknown check"
	_ = 0
}

package clock

import (
	"testing"
	"time"
)

// nearNow fails unless wall is within a millisecond of time.Now.
func nearNow(t *testing.T, what string, wall time.Time) {
	t.Helper()
	if d := time.Since(wall); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("%s is %v off time.Now", what, d)
	}
}

// staleAnchor moves the anchor's reading back by age and its wall time
// forward by step, as if the anchor were age old and the system clock had
// been stepped back by step since.
func staleAnchor(age, step time.Duration) {
	anchor.at.Add(-int64(age))
	anchor.base.Add(int64(step))
}

func TestMonoReadingsAreNeverZeroAndNeverGoBack(t *testing.T) {
	prev := Mono()
	if prev <= 0 {
		t.Fatalf("Mono() = %v, want a positive reading", prev)
	}
	for i := 0; i < 1000; i++ {
		cur := Mono()
		if cur < prev {
			t.Fatalf("Mono went back: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestWallAtAgreesWithNow(t *testing.T) {
	for i := 0; i < 100; i++ {
		nearNow(t, "WallAt(Mono())", WallAt(Mono()))
	}
}

// TestWallAtReanchorsPastASecond: within a second of its anchor WallAt
// reads no clock, so a stepped system clock does not show; a reading more
// than a second past the anchor reads the wall clock once, and from then on
// the step shows.
func TestWallAtReanchorsPastASecond(t *testing.T) {
	WallAt(Mono()) // anchored within the last second, or now
	staleAnchor(0, time.Hour)
	if d := WallAt(Mono()).Sub(time.Now()); d < time.Hour-time.Millisecond {
		t.Fatalf("WallAt is %v ahead of time.Now within a second of its anchor, want the hour the anchor was moved", d)
	}
	staleAnchor(reanchorAfter+time.Millisecond, 0)
	m := Mono()
	nearNow(t, "WallAt after the re-anchor", WallAt(m))
	if at := time.Duration(anchor.at.Load()); at < m {
		t.Fatalf("anchor at %v after a reading at %v, want it moved up to the re-anchor", at, m)
	}
}

func TestWallAtAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() { WallAt(Mono()) }); n != 0 {
		t.Errorf("WallAt allocates %.0f times in steady state, want 0", n)
	}
	n := testing.AllocsPerRun(1000, func() {
		staleAnchor(2*reanchorAfter, 0)
		WallAt(Mono())
	})
	if n != 0 {
		t.Errorf("WallAt allocates %.0f times when it re-anchors, want 0", n)
	}
}

//go:build !race

package orb_test

const raceEnabled = false

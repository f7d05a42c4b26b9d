//go:build !race

package orb

const RaceEnabled = false

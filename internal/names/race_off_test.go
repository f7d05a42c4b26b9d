//go:build !race

package names

const raceEnabled = false

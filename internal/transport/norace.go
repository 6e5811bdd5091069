//go:build !race

package transport

// See race.go.
func raceReleaseFrame() {}

func raceAcquireFrame() {}

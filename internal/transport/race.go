//go:build race

package transport

import "sync/atomic"

// The race detector takes write(2) and read(2) as a release and an
// acquire on one shared clock, so bytes sent on a socket carry the
// sender's history to the receiver — but it does not annotate
// writev(2), the call writeFrame makes. ioSync restores that edge for
// frames: a handler's writes happen before its caller reads the reply,
// as they do on the wire. Without the race detector both calls are
// empty (norace.go).
var ioSync atomic.Int64

func raceReleaseFrame() { ioSync.Add(1) }

func raceAcquireFrame() { ioSync.Load() }

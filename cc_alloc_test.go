package repro

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/session"
	"repro/internal/tcp"
)

// TestCcAllocParity is the perf gate the CC benchmarks feed: swapping
// the congestion controller must not change the session hot path's
// allocation profile. The controllers are flat structs initialized
// once per connection, so CUBIC and BBR-lite may not allocate more
// than 5% over Reno on the same capture.
func TestCcAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second session replays")
	}
	run := func(cc string) float64 {
		v := media.Video{ID: 99, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
		return testing.AllocsPerRun(3, func() {
			session.Run(session.Config{
				Video: v, Service: session.YouTube,
				Player:  player.NewFlashPlayer(),
				Network: netem.Research, Seed: 7,
				ServerTCP: tcp.Config{CC: cc},
			})
		})
	}
	reno := run(tcp.CCReno)
	if reno == 0 {
		t.Fatal("reno session reported zero allocations")
	}
	for _, cc := range []string{tcp.CCCubic, tcp.CCBbr} {
		if got := run(cc); got > reno*1.05 {
			t.Errorf("%s allocates %.0f allocs/session, more than 5%% over reno's %.0f", cc, got, reno)
		}
	}
}

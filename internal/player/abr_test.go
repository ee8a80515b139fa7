package player

import (
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func abrVideo(c media.Container) media.Video {
	return media.Video{
		ID: 11, Duration: 300 * time.Second, Container: c, Resolution: "adaptive",
	}.WithLadder(media.NetflixLadder...)
}

// abrRig wires a client against a service over a link of the given
// downstream rate.
func abrRig(seed int64, downMbps float64, v media.Video, netflix bool) *rig {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	prof := netem.Profile{
		Name: "abr", Down: netem.Bandwidth(downMbps) * netem.Mbps,
		Up: 5 * netem.Mbps, RTT: 40 * time.Millisecond, Queue: 128 << 10,
	}
	path := netem.NewPath(sch, prof, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	if netflix {
		service.NewNetflix(server, tcp.Config{}, []media.Video{v})
	} else {
		service.NewYouTube(server, tcp.Config{}, []media.Video{v})
	}
	return &rig{sch: sch, env: &Env{Sch: sch, Host: client, Server: packet.EP(203, 0, 113, 10, 80)}}
}

func TestABRFragmentsAdaptsToSlowLink(t *testing.T) {
	// 1.2 Mbps link, ladder 0.5–3.8 Mbps: the rate controller must
	// settle on a sustainable rung and keep rebuffering near zero.
	v := abrVideo(media.Silverlight)
	r := abrRig(1, 1.2, v, true)
	p := NewABRPlayer(ABRConfig{Controller: abr.NewRateBased()})
	p.Start(r.env, v)
	r.sch.RunUntil(2 * time.Minute)
	m := p.QoE(r.sch.Now())
	if !m.Started {
		t.Fatal("playback never started")
	}
	if m.RebufferTime > sec(5) {
		t.Fatalf("rate controller stalled %.1f s on a sustainable link", m.RebufferTime.Seconds())
	}
	if mean := m.MeanFetchedBps(); mean <= 0 || mean > 1.2e6 {
		t.Fatalf("mean fetched bitrate %.2f Mbps not in (0, link rate]", mean/1e6)
	}
	if len(m.RungSec) == 0 || m.RungSec[len(m.RungSec)-1] > 0 && m.RungSec[0] == 0 {
		t.Fatalf("rung occupancy not tracking the slow link: %v", m.RungSec)
	}
}

func TestABRFixedTopStallsWhereBufferBasedDoesNot(t *testing.T) {
	// The headline mechanism at single-session scale: on a 1.2 Mbps
	// link, pinning the 3.8 Mbps top rung starves playback; the
	// buffer-based controller keeps stalls an order of magnitude
	// lower by walking down the ladder.
	v := abrVideo(media.Silverlight)
	run := func(c abr.Controller) Metrics {
		r := abrRig(2, 1.2, v, true)
		p := NewABRPlayer(ABRConfig{Controller: c})
		p.Start(r.env, v)
		r.sch.RunUntil(2 * time.Minute)
		return p.QoE(r.sch.Now())
	}
	fixed := run(abr.NewFixed(-1))
	bba := run(abr.NewBufferBased())
	if fixed.RebufferTime < sec(30) {
		t.Fatalf("fixed top rung stalled only %.1f s; the link should starve it", fixed.RebufferTime.Seconds())
	}
	if bba.RebufferTime > fixed.RebufferTime/10 {
		t.Fatalf("buffer-based stalled %.1f s vs fixed %.1f s; want 10x less",
			bba.RebufferTime.Seconds(), fixed.RebufferTime.Seconds())
	}
	if bba.Switches == 0 {
		t.Fatal("buffer-based controller never switched")
	}
	if bba.MeanFetchedBps() >= fixed.MeanFetchedBps() {
		t.Fatalf("the trade must cost bitrate: bba %.2f vs fixed %.2f Mbps",
			bba.MeanFetchedBps()/1e6, fixed.MeanFetchedBps()/1e6)
	}
}

func TestABRRangesFetchesPerRenditionResources(t *testing.T) {
	// DASH-over-ranges against the YouTube per-rendition resources.
	v := abrVideo(media.HTML5)
	r := abrRig(3, 2.0, v, false)
	p := NewABRPlayer(ABRConfig{Controller: abr.NewBufferBased(), Source: Ranges})
	p.Start(r.env, v)
	r.sch.RunUntil(2 * time.Minute)
	m := p.QoE(r.sch.Now())
	if !m.Started || p.Downloaded() == 0 {
		t.Fatalf("range-based ABR streamed nothing: %+v", m)
	}
	if m.RebufferTime > sec(10) {
		t.Fatalf("range-based ABR stalled %.1f s on a 2 Mbps link", m.RebufferTime.Seconds())
	}
}

func TestABRBufferRespectsCap(t *testing.T) {
	// On a fast link the buffer must sit at (cap-chunk, cap], never
	// beyond: the fetch loop is self-pacing.
	v := abrVideo(media.Silverlight)
	r := abrRig(4, 50, v, true)
	p := NewABRPlayer(ABRConfig{Controller: abr.NewFixed(0)})
	p.Start(r.env, v)
	for s := 30; s <= 120; s += 30 {
		r.sch.RunUntil(time.Duration(s) * time.Second)
		if lvl := p.buf.Level(r.sch.Now()); lvl > 30.5 {
			t.Fatalf("buffer level %.1f s exceeds the 30 s cap", lvl)
		}
	}
	if p.Downloaded() == 0 {
		t.Fatal("nothing downloaded")
	}
}

func TestLegacyNetflixSnapsToCustomLadder(t *testing.T) {
	// A video carrying its own rendition ladder only serves those
	// rungs; the legacy clients (configured against the default
	// NetflixLadder) must snap onto it instead of silently 404ing
	// every fragment.
	v := media.Video{
		ID: 12, Duration: 10 * time.Minute, Container: media.Silverlight,
		Resolution: "adaptive",
	}.WithLadder(1e6, 2e6)
	r := abrRig(5, 20, v, true)
	p := NewSilverlightPC()
	p.Start(r.env, v)
	r.sch.RunUntil(60 * time.Second)
	if p.Downloaded() == 0 {
		t.Fatal("legacy client downloaded nothing from a custom-laddered title")
	}
	for _, rate := range p.ladder {
		if v.RungIndex(rate) < 0 {
			t.Fatalf("client ladder holds off-ladder rate %v", rate)
		}
	}
	if v.RungIndex(p.chosen) < 0 {
		t.Fatalf("chosen rate %v not on the video ladder", p.chosen)
	}
}

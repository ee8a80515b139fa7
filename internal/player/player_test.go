package player

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// rig wires a client host, a YouTube or Netflix service and an Env.
type rig struct {
	sch *sim.Scheduler
	env *Env
}

func newRig(seed int64, videos []media.Video, netflix bool) *rig {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	path := netem.NewPath(sch, netem.Research, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	if netflix {
		service.NewNetflix(server, tcp.Config{}, videos)
	} else {
		service.NewYouTube(server, tcp.Config{}, videos)
	}
	return &rig{sch: sch, env: &Env{Sch: sch, Host: client, Server: packet.EP(203, 0, 113, 10, 80)}}
}

func htmlVideo() media.Video {
	return media.Video{ID: 1, EncodingRate: 1e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
}

func TestPlayerNames(t *testing.T) {
	players := []Player{
		NewFlashPlayer(), NewIEHtml5(), NewFirefoxHtml5(),
		NewChromeHtml5(), NewAndroidYouTube(), NewIPadYouTube(),
		NewSilverlightPC(), NewNetflixIPad(), NewNetflixAndroid(),
	}
	seen := map[string]bool{}
	for _, p := range players {
		name := p.Name()
		if name == "" || seen[name] {
			t.Fatalf("duplicate or empty player name %q", name)
		}
		seen[name] = true
		if p.Downloaded() != 0 {
			t.Fatalf("%s: nonzero Downloaded before Start", name)
		}
	}
}

func TestFlashPlayerConsumesEverythingOffered(t *testing.T) {
	v := media.Video{ID: 1, EncodingRate: 1e6, Duration: 60 * time.Second, Container: media.Flash, Resolution: "360p"}
	r := newRig(1, []media.Video{v}, false)
	p := NewFlashPlayer()
	p.Start(r.env, v)
	r.sch.RunUntil(3 * time.Minute)
	want := v.Size() + int64(media.FLVHeaderSize)
	if p.Downloaded() != want {
		t.Fatalf("downloaded %d, want %d", p.Downloaded(), want)
	}
}

func TestIEHtml5RateLimits(t *testing.T) {
	v := htmlVideo()
	r := newRig(2, []media.Video{v}, false)
	p := NewIEHtml5()
	p.Start(r.env, v)
	r.sch.RunUntil(30 * time.Second)
	afterBuffering := p.Downloaded()
	// Buffering target is 10-15 MB; the whole 50 MB must NOT be here.
	if afterBuffering < 10<<20 || afterBuffering > 17<<20 {
		t.Fatalf("downloaded %d after buffering, want 10-15 MB", afterBuffering)
	}
	r.sch.RunUntil(90 * time.Second)
	// Steady state: ~1.06x encoding rate = ~8 MB per minute.
	delta := p.Downloaded() - afterBuffering
	rate := float64(delta) * 8 / 60
	if rate < 0.8e6 || rate > 1.4e6 {
		t.Fatalf("steady consumption %.2f Mbps, want ~1.06", rate/1e6)
	}
}

func TestFirefoxDownloadsEverythingFast(t *testing.T) {
	v := htmlVideo() // 50 MB
	r := newRig(3, []media.Video{v}, false)
	p := NewFirefoxHtml5()
	p.Start(r.env, v)
	r.sch.RunUntil(30 * time.Second)
	want := v.Size() + int64(media.WebMHeaderSize)
	if p.Downloaded() != want {
		t.Fatalf("downloaded %d/%d in 30 s; Firefox must be a bulk transfer", p.Downloaded(), want)
	}
}

func TestChromeLongPullCadence(t *testing.T) {
	v := htmlVideo()
	r := newRig(4, []media.Video{v}, false)
	p := NewChromeHtml5()
	p.Start(r.env, v)
	r.sch.RunUntil(20 * time.Second)
	buffered := p.Downloaded()
	if buffered < 10<<20 || buffered > 17<<20 {
		t.Fatalf("buffered %d, want 10-15 MB", buffered)
	}
	// Immediately after buffering there is a quiet period much longer
	// than any short-cycle OFF.
	r.sch.RunUntil(25 * time.Second)
	if p.Downloaded()-buffered > 2<<20 {
		t.Fatalf("Chrome kept downloading right after buffering; long OFF expected")
	}
}

func TestIPadUsesManyConnections(t *testing.T) {
	v := media.Video{ID: 1, EncodingRate: 2e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
	r := newRig(5, []media.Video{v}, false)
	p := NewIPadYouTube()
	p.Start(r.env, v)
	r.sch.RunUntil(60 * time.Second)
	if p.Downloaded() == 0 {
		t.Fatal("no data downloaded")
	}
	// blockBytes grows with rate.
	low := NewIPadYouTube()
	low.video = media.Video{EncodingRate: 0.3e6}
	high := NewIPadYouTube()
	high.video = media.Video{EncodingRate: 2.5e6}
	if low.blockBytes() >= high.blockBytes() {
		t.Fatalf("block size must grow with rate: %d vs %d", low.blockBytes(), high.blockBytes())
	}
	if low.blockBytes() < 64<<10 {
		t.Fatal("block floor is 64 kB")
	}
}

func TestNetflixPCBuffersAllRungs(t *testing.T) {
	v := media.Video{ID: 2, EncodingRate: 3800e3, Duration: 30 * time.Minute, Container: media.Silverlight}
	r := newRig(6, []media.Video{v}, true)
	p := NewSilverlightPC()
	p.Start(r.env, v)
	r.sch.RunUntil(60 * time.Second)
	// Buffering fetches 4 fragments of each rung + 60 s of the top
	// rate: ~47 MB.
	if got := p.Downloaded(); got < 35<<20 || got > 60<<20 {
		t.Fatalf("PC buffering downloaded %d, want ~47 MB", got)
	}
}

func TestNetflixAndroidSingleConnection(t *testing.T) {
	v := media.Video{ID: 3, EncodingRate: 3800e3, Duration: 30 * time.Minute, Container: media.Silverlight}
	r := newRig(7, []media.Video{v}, true)
	p := NewNetflixAndroid()
	p.Start(r.env, v)
	r.sch.RunUntil(2 * time.Minute)
	if r.env.Host.ConnCount() != 1 {
		t.Fatalf("Android must keep one connection, has %d", r.env.Host.ConnCount())
	}
	if p.Downloaded() < 30<<20 {
		t.Fatalf("Android buffering = %d, want ~40 MB", p.Downloaded())
	}
}

func TestNetflixIPadSubsetLadder(t *testing.T) {
	n := NewNetflixIPad()
	if len(n.ladder) >= len(media.NetflixLadder) {
		t.Fatal("iPad must buffer a ladder subset")
	}
	pc := NewSilverlightPC()
	if len(pc.ladder) != len(media.NetflixLadder) {
		t.Fatal("PC must buffer every rung")
	}
}

func TestPullerStopsAtVideoEnd(t *testing.T) {
	// A short video: the puller must terminate rather than keep
	// scheduling pulls forever.
	v := media.Video{ID: 1, EncodingRate: 1e6, Duration: 30 * time.Second, Container: media.HTML5, Resolution: "360p"}
	r := newRig(8, []media.Video{v}, false)
	p := NewIEHtml5()
	p.Start(r.env, v)
	r.sch.RunUntil(2 * time.Minute)
	want := v.Size() + int64(media.WebMHeaderSize)
	if p.Downloaded() != want {
		t.Fatalf("downloaded %d, want %d", p.Downloaded(), want)
	}
	if !p.done {
		t.Fatal("puller must mark itself done at body end")
	}
}

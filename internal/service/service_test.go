package service

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

type world struct {
	sch            *sim.Scheduler
	client, server *tcp.Host
}

func newWorld(seed int64) *world {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	prof := netem.Profile{Name: "t", Down: 50 * netem.Mbps, Up: 50 * netem.Mbps, RTT: 20 * time.Millisecond}
	path := netem.NewPath(sch, prof, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	return &world{sch: sch, client: client, server: server}
}

func (w *world) get(path string, headers map[string]string, recvBuf int) (*httpx.Response, int, []byte) {
	cc := httpx.NewClientConn(w.client.Dial(tcp.Config{RecvBuf: recvBuf}, packet.EP(203, 0, 113, 10, 80)))
	var resp *httpx.Response
	var first []byte
	got := 0
	cc.OnResponse(func(r *httpx.Response) { resp = r })
	cc.OnBody(func(avail int) {
		if len(first) < 64 {
			buf := make([]byte, 64-len(first))
			n := cc.ReadBody(buf)
			first = append(first, buf[:n]...)
		}
		got += cc.DiscardBody(1 << 30)
	})
	cc.Get(path, headers)
	w.sch.RunUntil(w.sch.Now() + 3*time.Minute)
	return resp, got + len(first), first
}

func flashVideo() media.Video {
	return media.Video{ID: 5, EncodingRate: 1e6, Duration: 60 * time.Second, Container: media.Flash, Resolution: "360p"}
}

func TestYouTubeServesFullFlashVideo(t *testing.T) {
	w := newWorld(1)
	v := flashVideo()
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})
	resp, got, first := w.get(VideoPath(v.ID), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("resp = %+v", resp)
	}
	want := v.Size() + int64(media.FLVHeaderSize)
	if resp.ContentLength != want {
		t.Fatalf("content length %d, want %d", resp.ContentLength, want)
	}
	if int64(got) != want {
		t.Fatalf("received %d, want %d (pacing must finish within 3 min for a 60 s video)", got, want)
	}
	info, err := media.ParseHeader(first)
	if err != nil || info.Container != media.Flash || info.EncodingRate != 1e6 {
		t.Fatalf("body header = %+v, %v", info, err)
	}
	if resp.Headers["content-type"] != "video/x-flv" {
		t.Fatalf("content type %q", resp.Headers["content-type"])
	}
}

func TestYouTubeRangeRequests(t *testing.T) {
	w := newWorld(2)
	v := flashVideo()
	v.Container = media.HTML5
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})
	resp, got, first := w.get(VideoPath(v.ID), map[string]string{"Range": "bytes=0-65535"}, 1<<20)
	if resp == nil || resp.Status != 206 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.ContentLength != 65536 || got != 65536 {
		t.Fatalf("range response %d bytes, got %d", resp.ContentLength, got)
	}
	if info, err := media.ParseHeader(first); err != nil || info.Container != media.HTML5 {
		t.Fatalf("range at 0 must include the container header: %+v %v", info, err)
	}
	// Mid-file range carries no header, just media bytes.
	resp2, got2, _ := w.get(VideoPath(v.ID), map[string]string{"Range": "bytes=100000-165535"}, 1<<20)
	if resp2 == nil || resp2.Status != 206 || got2 != 65536 {
		t.Fatalf("mid range: %+v got %d", resp2, got2)
	}
	// Open-ended range.
	resp3, _, _ := w.get(VideoPath(v.ID), map[string]string{"Range": "bytes=7000000-"}, 1<<20)
	fileSize := v.Size() + int64(media.WebMHeaderSize)
	if resp3 == nil || resp3.ContentLength != fileSize-7000000 {
		t.Fatalf("open range: %+v", resp3)
	}
	// Suffix range: the last 512 bytes.
	resp4, got4, _ := w.get(VideoPath(v.ID), map[string]string{"Range": "bytes=-512"}, 1<<20)
	if resp4 == nil || resp4.Status != 206 || resp4.ContentLength != 512 || got4 != 512 {
		t.Fatalf("suffix range: %+v, %d bytes", resp4, got4)
	}
	if cr, want := resp4.Headers["content-range"], fmt.Sprintf("bytes %d-%d/%d", fileSize-512, fileSize-1, fileSize); cr != want {
		t.Fatalf("suffix Content-Range %q, want %q", cr, want)
	}
}

func TestYouTube404s(t *testing.T) {
	w := newWorld(3)
	NewYouTube(w.server, tcp.Config{}, nil)
	resp, _, _ := w.get("/videoplayback/999", nil, 1<<20)
	if resp == nil || resp.Status != 404 {
		t.Fatalf("missing video: %+v", resp)
	}
	resp2, _, _ := w.get("/bogus", nil, 1<<20)
	if resp2 == nil || resp2.Status != 404 {
		t.Fatalf("bogus path: %+v", resp2)
	}
	// An unsatisfiable range on an existing video: 416 naming the size,
	// with an empty body.
	w = newWorld(4)
	v := flashVideo()
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})
	fileSize := v.Size() + int64(media.FLVHeaderSize)
	resp3, got, _ := w.get(VideoPath(v.ID), map[string]string{"Range": fmt.Sprintf("bytes=%d-", fileSize)}, 1<<20)
	if resp3 == nil || resp3.Status != 416 || resp3.ContentLength != 0 || got != 0 {
		t.Fatalf("past-EOF range: %+v, %d bytes", resp3, got)
	}
	if cr, want := resp3.Headers["content-range"], fmt.Sprintf("bytes */%d", fileSize); cr != want {
		t.Fatalf("416 Content-Range %q, want %q", cr, want)
	}
}

func TestYouTubePacingRate(t *testing.T) {
	// A 1 Mbps Flash video must arrive at ~1.25 Mbps after the burst,
	// NOT at line rate.
	w := newWorld(4)
	v := media.Video{ID: 6, EncodingRate: 1e6, Duration: 600 * time.Second, Container: media.Flash, Resolution: "360p"}
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})
	cc := httpx.NewClientConn(w.client.Dial(tcp.Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80)))
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get(VideoPath(v.ID), nil)
	// The burst completes within ~2 s at 50 Mbps; measure it early so
	// steady-state blocks don't blur it.
	w.sch.RunUntil(3 * time.Second)
	atBurst := got
	w.sch.RunUntil(103 * time.Second)
	rate := float64(got-atBurst) * 8 / 100
	if rate < 1.0e6 || rate > 1.5e6 {
		t.Fatalf("steady rate %.2f Mbps, want ~1.25", rate/1e6)
	}
	// The burst itself is ~40 s of playback (plus ~2 s of blocks).
	if pb := float64(atBurst) * 8 / 1e6; pb < 30 || pb > 55 {
		t.Fatalf("burst = %.0f s of playback, want ~40", pb)
	}
}

func TestYouTubeHDUnpaced(t *testing.T) {
	w := newWorld(5)
	v := media.Video{ID: 7, EncodingRate: 4e6, Duration: 120 * time.Second, Container: media.Flash, Resolution: "720p"}
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})
	cc := httpx.NewClientConn(w.client.Dial(tcp.Config{RecvBuf: 4 << 20}, packet.EP(203, 0, 113, 10, 80)))
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get(VideoPath(v.ID), nil)
	w.sch.RunUntil(20 * time.Second)
	// 60 MB at 50 Mbps line rate ≈ 10 s; a paced server would need 2 min.
	if int64(got) < v.Size() {
		t.Fatalf("HD download incomplete after 20 s: %d/%d (must be unpaced)", got, v.Size())
	}
}

func TestNetflixFragments(t *testing.T) {
	w := newWorld(6)
	v := media.Video{ID: 8, EncodingRate: 3800e3, Duration: 10 * time.Minute, Container: media.Silverlight}
	NewNetflix(w.server, tcp.Config{}, []media.Video{v})
	rate := media.NetflixLadder[2]
	resp, got, first := w.get(FragPath(v.ID, rate, 0), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("resp = %+v", resp)
	}
	want := FragmentBytes(rate)
	if resp.ContentLength != want || int64(got) != want {
		t.Fatalf("fragment %d bytes (CL %d), want %d", got, resp.ContentLength, want)
	}
	info, err := media.ParseHeader(first)
	if err != nil || info.Container != media.Silverlight || info.EncodingRate != rate {
		t.Fatalf("fragment header: %+v %v", info, err)
	}
	if info.Duration != FragmentDuration {
		t.Fatalf("fragment duration %v", info.Duration)
	}
}

func TestNetflixFragment404s(t *testing.T) {
	w := newWorld(7)
	v := media.Video{ID: 9, EncodingRate: 3800e3, Duration: 1 * time.Minute, Container: media.Silverlight}
	NewNetflix(w.server, tcp.Config{}, []media.Video{v})
	// Index beyond the movie.
	if resp, _, _ := w.get(FragPath(v.ID, 1600e3, 9999), nil, 1<<20); resp == nil || resp.Status != 404 {
		t.Fatalf("beyond-end fragment: %+v", resp)
	}
	if resp, _, _ := w.get("/frag/9/abc/0", nil, 1<<20); resp == nil || resp.Status != 404 {
		t.Fatalf("bad bitrate: %+v", resp)
	}
	if resp, _, _ := w.get("/frag/777/1600/0", nil, 1<<20); resp == nil || resp.Status != 404 {
		t.Fatalf("unknown video: %+v", resp)
	}
	if resp, _, _ := w.get("/frag/9/1600", nil, 1<<20); resp == nil || resp.Status != 404 {
		t.Fatalf("short path: %+v", resp)
	}
}

func TestPathBuilders(t *testing.T) {
	if VideoPath(42) != "/videoplayback/42" {
		t.Fatal(VideoPath(42))
	}
	if FragPath(7, 1600e3, 3) != "/frag/7/1600/3" {
		t.Fatal(FragPath(7, 1600e3, 3))
	}
	if FragmentBytes(1600e3) != int64(1600e3/8*4)+media.MP4FragHeader {
		t.Fatal("FragmentBytes")
	}
}

func TestAddVideo(t *testing.T) {
	w := newWorld(8)
	y := NewYouTube(w.server, tcp.Config{}, nil)
	v := flashVideo()
	y.AddVideo(v)
	resp, _, _ := w.get(VideoPath(v.ID), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("added video not served: %+v", resp)
	}
}

func ladderVideo() media.Video {
	return media.Video{
		ID: 7, Duration: 120 * time.Second, Container: media.Silverlight,
		Resolution: "adaptive",
	}.WithLadder(media.NetflixLadder...)
}

func TestYouTubeRenditionResource(t *testing.T) {
	w := newWorld(21)
	v := ladderVideo()
	v.Container = media.HTML5
	NewYouTube(w.server, tcp.Config{}, []media.Video{v})

	// Full fetch of the bottom rung: size must reflect that rung's
	// bitrate, not the top one's.
	rung0 := v.AtRung(0)
	wantSize := int64(media.WebMHeaderSize) + rung0.Size()
	resp, got, _ := w.get(RenditionPath(v.ID, rung0.EncodingRate), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("rendition fetch: %+v", resp)
	}
	if int64(got) != wantSize {
		t.Fatalf("rendition body = %d bytes, want %d", got, wantSize)
	}

	// A byte range on a rung.
	resp, got, _ = w.get(RenditionPath(v.ID, rung0.EncodingRate),
		map[string]string{"Range": "bytes=100-1123"}, 1<<20)
	if resp == nil || resp.Status != 206 || got != 1024 {
		t.Fatalf("range on rendition: %+v, %d bytes", resp, got)
	}
	if cr := resp.Headers["content-range"]; cr == "" {
		t.Fatal("206 without Content-Range")
	}

	// Suffix range: the last 512 bytes.
	resp, got, _ = w.get(RenditionPath(v.ID, rung0.EncodingRate),
		map[string]string{"Range": "bytes=-512"}, 1<<20)
	if resp == nil || resp.Status != 206 || got != 512 {
		t.Fatalf("suffix range: %+v, %d bytes", resp, got)
	}

	// Range past EOF: 416 with an empty body.
	resp, got, _ = w.get(RenditionPath(v.ID, rung0.EncodingRate),
		map[string]string{"Range": fmt.Sprintf("bytes=%d-", wantSize)}, 1<<20)
	if resp == nil || resp.Status != 416 || got != 0 {
		t.Fatalf("past-EOF range: %+v, %d bytes", resp, got)
	}

	// A bitrate off the ladder is not a resource.
	resp, _, _ = w.get(RenditionPath(v.ID, 777e3), nil, 1<<20)
	if resp == nil || resp.Status != 404 {
		t.Fatalf("off-ladder rendition: %+v", resp)
	}
}

func TestNetflixLadderValidation(t *testing.T) {
	w := newWorld(22)
	v := ladderVideo()
	NewNetflix(w.server, tcp.Config{}, []media.Video{v})

	// Every ladder rung serves fragments.
	resp, got, first := w.get(FragPath(v.ID, v.Renditions[0], 0), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("ladder fragment: %+v", resp)
	}
	if int64(got) != FragmentBytes(v.Renditions[0]) {
		t.Fatalf("fragment size %d, want %d", got, FragmentBytes(v.Renditions[0]))
	}
	if rate := media.FragHeaderRate(first); rate != v.Renditions[0] {
		t.Fatalf("fragment header announces %v bps, want %v", rate, v.Renditions[0])
	}

	// An off-ladder rate is rejected for ladder-carrying videos.
	resp, _, _ = w.get(FragPath(v.ID, 777e3, 0), nil, 1<<20)
	if resp == nil || resp.Status != 404 {
		t.Fatalf("off-ladder fragment: %+v", resp)
	}

	// Legacy single-bitrate entries keep accepting any rate (the
	// Table-1 Netflix clients request NetflixLadder rates against
	// catalog entries that carry no explicit ladder).
	legacy := media.Video{ID: 8, EncodingRate: 3.8e6, Duration: 60 * time.Second, Container: media.Silverlight}
	w2 := newWorld(23)
	NewNetflix(w2.server, tcp.Config{}, []media.Video{legacy})
	resp, _, _ = w2.get(FragPath(legacy.ID, 1600e3, 0), nil, 1<<20)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("legacy any-rate fragment: %+v", resp)
	}
}

func TestCatalogRendition(t *testing.T) {
	c := NewCatalog([]media.Video{ladderVideo()})
	if _, ok := c.Rendition(7, 1600e3); !ok {
		t.Fatal("ladder rung not resolvable")
	}
	if rv, ok := c.Rendition(7, 500e3); !ok || rv.EncodingRate != 500e3 {
		t.Fatalf("rendition view = %+v, %v", rv, ok)
	}
	if _, ok := c.Rendition(7, 123e3); ok {
		t.Fatal("off-ladder rate resolved")
	}
	if _, ok := c.Rendition(99, 500e3); ok {
		t.Fatal("unknown id resolved")
	}
}

package media

import (
	"reflect"
	"testing"
	"time"
)

func sample() Video {
	return Video{
		ID:           42,
		EncodingRate: 1.2e6,
		Duration:     200 * time.Second,
		Container:    Flash,
		Resolution:   "360p",
	}
}

func TestVideoSize(t *testing.T) {
	v := sample()
	want := int64(1.2e6 / 8 * 200)
	if got := v.Size(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if v.String() == "" {
		t.Fatal("String empty")
	}
}

func TestFLVHeaderRoundTrip(t *testing.T) {
	v := sample()
	h := EncodeFLVHeader(v)
	if len(h) != FLVHeaderSize {
		t.Fatalf("header size %d", len(h))
	}
	info, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.Container != Flash || !info.RateValid {
		t.Fatalf("info = %+v", info)
	}
	if info.EncodingRate != 1.2e6 {
		t.Fatalf("rate = %v", info.EncodingRate)
	}
	if info.Duration != 200*time.Second {
		t.Fatalf("duration = %v", info.Duration)
	}
}

func TestWebMHeaderHasInvalidRate(t *testing.T) {
	v := sample()
	v.Container = HTML5
	h := EncodeWebMHeader(v)
	info, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.Container != HTML5 {
		t.Fatalf("container = %v", info.Container)
	}
	if info.RateValid {
		t.Fatal("WebM header must report an invalid rate (the paper's broken frame-rate field)")
	}
	if info.EncodingRate != 0 {
		t.Fatalf("rate should be absent, got %v", info.EncodingRate)
	}
	if info.Duration != 200*time.Second {
		t.Fatalf("duration = %v (needed for the Content-Length fallback)", info.Duration)
	}
}

func TestMP4FragHeader(t *testing.T) {
	v := sample()
	h := EncodeMP4FragHeader(v, 1600e3, 4*time.Second)
	info, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if info.Container != Silverlight || info.EncodingRate != 1600e3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Duration != 4*time.Second {
		t.Fatalf("frag duration = %v", info.Duration)
	}
}

func TestHeaderForDispatch(t *testing.T) {
	for _, c := range []Container{Flash, HTML5, Silverlight} {
		v := sample()
		v.Container = c
		info, err := ParseHeader(HeaderFor(v))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if info.Container != c {
			t.Fatalf("HeaderFor(%v) sniffed as %v", c, info.Container)
		}
	}
}

func TestParseHeaderUnknown(t *testing.T) {
	if _, err := ParseHeader([]byte("RIFFxxxxWAVE____________")); err != ErrUnknownContainer {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseHeader([]byte{1, 2}); err == nil {
		t.Fatal("short input must error")
	}
}

func TestContainerString(t *testing.T) {
	if Flash.String() != "Flash" || HTML5.String() != "HTML5" || Silverlight.String() != "Silverlight" {
		t.Fatal("container names wrong")
	}
	if Container(9).String() != "Unknown" {
		t.Fatal("unknown container name")
	}
}

func TestYouFlashDataset(t *testing.T) {
	d := YouFlash(200, 1)
	if d.Name != "YouFlash" || len(d.Videos) != 200 {
		t.Fatalf("dataset %s with %d videos", d.Name, len(d.Videos))
	}
	for _, v := range d.Videos {
		if v.EncodingRate < 0.2e6 || v.EncodingRate > 1.5e6 {
			t.Fatalf("rate %v outside the paper's 0.2-1.5 Mbps", v.EncodingRate)
		}
		if v.Container != Flash {
			t.Fatal("YouFlash videos must use Flash")
		}
		if v.Resolution != "240p" && v.Resolution != "360p" {
			t.Fatalf("resolution %s", v.Resolution)
		}
		if v.Duration < 30*time.Second || v.Duration > time.Hour {
			t.Fatalf("duration %v out of range", v.Duration)
		}
	}
}

func TestYouHDDataset(t *testing.T) {
	d := YouHD(100, 2)
	for _, v := range d.Videos {
		if v.EncodingRate < 0.2e6 || v.EncodingRate > 4.8e6 {
			t.Fatalf("HD rate %v outside 0.2-4.8 Mbps", v.EncodingRate)
		}
		if v.Resolution != "720p" {
			t.Fatal("HD videos must be 720p")
		}
	}
}

func TestYouHtmlDataset(t *testing.T) {
	d := YouHtml(120, 3)
	for _, v := range d.Videos {
		if v.EncodingRate < 0.2e6 || v.EncodingRate > 2.5e6 {
			t.Fatalf("HTML5 rate %v outside 0.2-2.5 Mbps", v.EncodingRate)
		}
		if v.Container != HTML5 {
			t.Fatal("YouHtml videos must use HTML5")
		}
	}
}

func TestYouMobDataset(t *testing.T) {
	d := YouMob(80, 4)
	for _, v := range d.Videos {
		if v.EncodingRate < 0.2e6 || v.EncodingRate > 2.7e6 {
			t.Fatalf("mobile rate %v outside 0.2-2.7 Mbps", v.EncodingRate)
		}
	}
}

func TestNetflixDatasets(t *testing.T) {
	pc := NetPC(50, 5)
	for _, v := range pc.Videos {
		if v.Container != Silverlight {
			t.Fatal("Netflix must use Silverlight")
		}
		if v.Duration < 20*time.Minute {
			t.Fatalf("movie duration %v too short", v.Duration)
		}
	}
	if len(NetflixLadder) < 3 {
		t.Fatal("ladder too small")
	}
	for i := 1; i < len(NetflixLadder); i++ {
		if NetflixLadder[i] <= NetflixLadder[i-1] {
			t.Fatal("ladder must be increasing")
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a := YouFlash(50, 99)
	b := YouFlash(50, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate identical datasets")
	}
	c := YouFlash(50, 100)
	same := reflect.DeepEqual(a.Videos, c.Videos)
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestRenditionLadder(t *testing.T) {
	v := sample()
	if got := v.Ladder(); len(got) != 1 || got[0] != v.EncodingRate {
		t.Fatalf("single-bitrate ladder = %v", got)
	}
	lv := v.WithLadder(NetflixLadder...)
	if lv.EncodingRate != NetflixLadder[len(NetflixLadder)-1] {
		t.Fatalf("WithLadder must pin the top rung, got %v", lv.EncodingRate)
	}
	if len(lv.Ladder()) != len(NetflixLadder) {
		t.Fatalf("ladder = %v", lv.Ladder())
	}
	r0 := lv.AtRung(0)
	if r0.EncodingRate != NetflixLadder[0] || r0.Duration != lv.Duration {
		t.Fatalf("AtRung(0) = %+v", r0)
	}
	if lv.AtRung(-5).EncodingRate != NetflixLadder[0] || lv.AtRung(99).EncodingRate != NetflixLadder[len(NetflixLadder)-1] {
		t.Fatal("AtRung must clamp")
	}
	if r0.Size() >= lv.Size() {
		t.Fatal("a lower rung must be a smaller resource")
	}
	if lv.RungIndex(1600e3) != 2 || lv.RungIndex(777e3) != -1 {
		t.Fatalf("RungIndex broken: %d, %d", lv.RungIndex(1600e3), lv.RungIndex(777e3))
	}
	// The template's own Renditions slice is not aliased.
	shared := []float64{1e6, 2e6}
	a := v.WithLadder(shared...)
	shared[0] = 9e9
	if a.Renditions[0] != 1e6 {
		t.Fatal("WithLadder must copy the ladder")
	}
}

func TestFragHeaderRate(t *testing.T) {
	v := sample()
	hdr := EncodeMP4FragHeader(v, 1600e3, 4*time.Second)
	if got := FragHeaderRate(hdr); got != 1600e3 {
		t.Fatalf("rate from header = %v", got)
	}
	// Mid-payload headers are found (HTTP response header in front).
	payload := append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"), hdr...)
	payload = append(payload, make([]byte, 200)...)
	if got := FragHeaderRate(payload); got != 1600e3 {
		t.Fatalf("rate from mid-payload header = %v", got)
	}
	// Truncated headers and plain media bytes yield 0.
	if FragHeaderRate(hdr[:10]) != 0 || FragHeaderRate(make([]byte, 1400)) != 0 || FragHeaderRate(nil) != 0 {
		t.Fatal("false positive on truncated/zero payloads")
	}
}

// Package service implements the server side of the two streaming
// services as the paper characterizes them (Section 5):
//
//   - YouTube, Flash container at default resolutions: the SERVER
//     paces the transfer — a burst worth ~40 s of playback, then 64 kB
//     blocks at 1.25x the encoding rate (Figures 3a and 4).
//   - YouTube, Flash HD (720p): no server pacing at all (Figure 8).
//   - YouTube, HTML5/WebM: no server pacing — "the YouTube servers do
//     not explicitly control the data transfer rate" — so the traffic
//     shape is whatever the client's read behaviour produces.
//   - Netflix: a CDN serving MP4-style fragments of every ladder
//     bitrate; all pacing comes from the client's fragment requests.
package service

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpx"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// YouTube server-pacing parameters measured by the paper.
const (
	// FlashBlockBytes is the dominant steady-state block (Figure 4a).
	FlashBlockBytes = 64 << 10
	// FlashAccumulation is the target accumulation ratio (Figure 4b).
	FlashAccumulation = 1.25
	// FlashBurstSeconds is the playback time pushed during the
	// buffering phase (Figure 3a).
	FlashBurstSeconds = 40.0
)

// FragmentDuration is the Netflix fragment length.
const FragmentDuration = 4 * time.Second

// Catalog is the id→video lookup both services share: one map from
// video IDs to their metadata, independent of which front end serves
// the bytes.
type Catalog struct {
	vids map[int]media.Video
}

// NewCatalog builds a catalog over the given videos.
func NewCatalog(videos []media.Video) *Catalog {
	c := &Catalog{vids: make(map[int]media.Video, len(videos))}
	for _, v := range videos {
		c.vids[v.ID] = v
	}
	return c
}

// Add registers one more entry.
func (c *Catalog) Add(v media.Video) { c.vids[v.ID] = v }

// Reset empties the catalog, keeping the map's capacity. Recycled cell
// worlds refill per cell because video IDs encode the global client
// index.
func (c *Catalog) Reset() { clear(c.vids) }

// Get looks an entry up.
func (c *Catalog) Get(id int) (media.Video, bool) {
	v, ok := c.vids[id]
	return v, ok
}

// Rendition resolves id at the given bitrate (bps): the per-rendition
// view of the entry when the rate is a ladder rung, ok=false
// otherwise.
func (c *Catalog) Rendition(id int, rate float64) (media.Video, bool) {
	v, ok := c.vids[id]
	if !ok {
		return media.Video{}, false
	}
	i := v.RungIndex(rate)
	if i < 0 {
		return media.Video{}, false
	}
	return v.AtRung(i), true
}

// YouTube is the simulated YouTube front end.
type YouTube struct {
	sch *sim.Scheduler
	cat *Catalog
}

// NewYouTube registers the service on host:80 and returns it. The
// catalog maps video IDs to their metadata.
func NewYouTube(host *tcp.Host, cfg tcp.Config, videos []media.Video) *YouTube {
	y := &YouTube{sch: host.Scheduler(), cat: NewCatalog(videos)}
	httpx.NewServer(host, 80, cfg, y.handle)
	return y
}

// AddVideo registers one more catalog entry.
func (y *YouTube) AddVideo(v media.Video) { y.cat.Add(v) }

// ResetCatalog empties the catalog for the next population. The
// listener registration survives — it lives on the host.
func (y *YouTube) ResetCatalog() { y.cat.Reset() }

// handle serves /videoplayback/<id>, the legacy single-bitrate
// resource, and /videoplayback/<id>/<kbps>, one rung of the rendition
// ladder as its own byte-addressable resource (the DASH-over-ranges
// surface the ABR player pulls byte ranges from). Both honour the
// Range grammar of httpx.Request.ResolveRange: 206 for a satisfiable
// range (suffix ranges and ends past EOF included), 416 for an
// unsatisfiable one, 200 for the whole file. Only a whole legacy
// Flash file at a default resolution is server-paced; rate control at
// a rendition is the client's request schedule.
func (y *YouTube) handle(req *httpx.Request, w httpx.ResponseWriter) {
	idStr, kbpsStr, isRendition := strings.Cut(strings.TrimPrefix(req.Path, "/videoplayback/"), "/")
	id, err := strconv.Atoi(idStr)
	var v media.Video
	ok := false
	switch {
	case err != nil:
	case isRendition:
		if kbps, err := strconv.Atoi(kbpsStr); err == nil {
			v, ok = y.cat.Rendition(id, float64(kbps)*1000)
		}
	default:
		v, ok = y.cat.Get(id)
	}
	if !ok {
		w.WriteHeader(404, map[string]string{"Content-Length": "0"})
		return
	}
	header := media.HeaderFor(v)
	fileSize := int64(len(header)) + v.Size()
	start, n, hasRange, rangeOK := req.ResolveRange(fileSize)
	switch {
	case hasRange && !rangeOK:
		w.WriteHeader(416, map[string]string{
			"Content-Length": "0",
			"Content-Range":  fmt.Sprintf("bytes */%d", fileSize),
		})
	case hasRange:
		w.WriteHeader(206, map[string]string{
			"Content-Length": strconv.FormatInt(n, 10),
			"Content-Range":  fmt.Sprintf("bytes %d-%d/%d", start, start+n-1, fileSize),
			"Content-Type":   contentType(v),
		})
		writeFileSlice(w, header, start, n)
	default:
		w.WriteHeader(200, map[string]string{
			"Content-Length": strconv.FormatInt(fileSize, 10),
			"Content-Type":   contentType(v),
		})
		if !isRendition && v.Container == media.Flash && v.Resolution != "720p" {
			y.servePaced(w, v, header, fileSize)
			return
		}
		// HD, WebM and renditions: dump the whole file; any rate
		// limiting is the client's problem (or nobody's — Figure 8).
		w.Write(header)
		w.WriteZero(int(fileSize) - len(header))
	}
}

// servePaced implements the Flash strategy: initial burst then 64 kB
// blocks on a timer, targeting accumulation ratio 1.25.
func (y *YouTube) servePaced(w httpx.ResponseWriter, v media.Video, header []byte, fileSize int64) {
	// Burst: ~40 s of playback (small jitter keeps the correlation
	// with the encoding rate at ~0.85 rather than exactly 1).
	jitter := 0.95 + 0.1*y.sch.Rand().Float64()
	burst := int64(FlashBurstSeconds * jitter * v.EncodingRate / 8)
	if burst > fileSize {
		burst = fileSize
	}
	w.Write(header)
	w.WriteZero(int(burst) - len(header))
	sent := burst
	if sent >= fileSize {
		return
	}
	period := time.Duration(float64(FlashBlockBytes) * 8 / (FlashAccumulation * v.EncodingRate) * float64(time.Second))
	conn := w.Conn()
	var tick func()
	tick = func() {
		if conn.ConnState() == tcp.StateClosed {
			return
		}
		n := int64(FlashBlockBytes)
		if n > fileSize-sent {
			n = fileSize - sent
		}
		w.WriteZero(int(n))
		sent += n
		if sent < fileSize {
			y.sch.After(period, tick)
		}
	}
	y.sch.After(period, tick)
}

func contentType(v media.Video) string {
	switch v.Container {
	case media.Flash:
		return "video/x-flv"
	case media.HTML5:
		return "video/webm"
	default:
		return "video/mp4"
	}
}

// writeFileSlice emits bytes [start, start+n) of the virtual file
// (container header followed by zero media bytes).
func writeFileSlice(w httpx.ResponseWriter, header []byte, start, n int64) {
	if start < int64(len(header)) {
		take := int64(len(header)) - start
		if take > n {
			take = n
		}
		w.Write(header[start : start+take])
		n -= take
	}
	if n > 0 {
		w.WriteZero(int(n))
	}
}

// Netflix is the simulated Netflix CDN.
type Netflix struct {
	cat *Catalog
}

// NewNetflix registers the CDN on host:80.
func NewNetflix(host *tcp.Host, cfg tcp.Config, videos []media.Video) *Netflix {
	n := &Netflix{cat: NewCatalog(videos)}
	httpx.NewServer(host, 80, cfg, n.handle)
	return n
}

// AddVideo registers one more catalog entry.
func (n *Netflix) AddVideo(v media.Video) { n.cat.Add(v) }

// ResetCatalog empties the catalog for the next population. The
// listener registration survives — it lives on the host.
func (n *Netflix) ResetCatalog() { n.cat.Reset() }

// FragmentBytes returns the byte size of one fragment at the given
// ladder bitrate (bps), including its header.
func FragmentBytes(bitrate float64) int64 {
	return int64(bitrate/8*FragmentDuration.Seconds()) + media.MP4FragHeader
}

// handle serves /frag/<id>/<bitrateKbps>/<index>. The whole fragment
// is written at once — Netflix's rate control lives in the client's
// request schedule (Akhshabi et al. [11]). A video carrying an
// explicit rendition ladder only serves fragments at its rungs;
// legacy single-bitrate entries accept any rate, the historical
// behaviour the Table-1 clients rely on.
func (n *Netflix) handle(req *httpx.Request, w httpx.ResponseWriter) {
	parts := strings.Split(strings.TrimPrefix(req.Path, "/frag/"), "/")
	if len(parts) != 3 {
		w.WriteHeader(404, map[string]string{"Content-Length": "0"})
		return
	}
	id, err1 := strconv.Atoi(parts[0])
	kbps, err2 := strconv.Atoi(parts[1])
	idx, err3 := strconv.Atoi(parts[2])
	v, ok := n.cat.Get(id)
	if err1 != nil || err2 != nil || err3 != nil || !ok {
		w.WriteHeader(404, map[string]string{"Content-Length": "0"})
		return
	}
	bitrate := float64(kbps) * 1000
	if len(v.Renditions) > 0 && v.RungIndex(bitrate) < 0 {
		w.WriteHeader(404, map[string]string{"Content-Length": "0"})
		return
	}
	total := int(v.Duration / FragmentDuration)
	if idx >= total {
		w.WriteHeader(404, map[string]string{"Content-Length": "0"})
		return
	}
	size := FragmentBytes(bitrate)
	w.WriteHeader(200, map[string]string{
		"Content-Length": strconv.FormatInt(size, 10),
		"Content-Type":   "video/mp4",
	})
	hdr := media.EncodeMP4FragHeader(v, bitrate, FragmentDuration)
	w.Write(hdr)
	w.WriteZero(int(size) - len(hdr))
}

// FragPath builds the request path for a fragment.
func FragPath(videoID int, bitrate float64, index int) string {
	return fmt.Sprintf("/frag/%d/%d/%d", videoID, int(bitrate/1000), index)
}

// VideoPath builds the request path for a YouTube video.
func VideoPath(videoID int) string {
	return fmt.Sprintf("/videoplayback/%d", videoID)
}

// RenditionPath builds the request path for one rung of a YouTube
// video's rendition ladder.
func RenditionPath(videoID int, bitrate float64) string {
	return fmt.Sprintf("/videoplayback/%d/%d", videoID, int(bitrate/1000))
}

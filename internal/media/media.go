// Package media models the video content: per-video metadata, binary
// container headers (FLV-like for Flash, WebM-like for HTML5, MP4
// fragments for Netflix/Silverlight), and generators for the six
// datasets of Section 4.1 with the paper's encoding-rate ranges.
//
// Container headers matter because the paper's methodology recovers
// the encoding rate from the bytes on the wire: Flash carries the rate
// in the file header, while the WebM header carried an invalid
// frame-rate entry, forcing the authors to estimate the rate as
// Content-Length divided by duration. Our synthetic headers reproduce
// both situations so internal/analysis exercises the same code paths.
package media

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Container identifies the streaming container format.
type Container int

// The containers of Section 2.
const (
	Flash       Container = iota // Adobe Flash (FLV), default on PCs
	HTML5                        // WebM in a HTML5 <video>
	Silverlight                  // Netflix MP4-style fragments
)

func (c Container) String() string {
	switch c {
	case Flash:
		return "Flash"
	case HTML5:
		return "HTML5"
	case Silverlight:
		return "Silverlight"
	default:
		return "Unknown"
	}
}

// Video is one catalog entry.
type Video struct {
	ID           int
	Title        string
	EncodingRate float64 // bits per second (the default/top rendition)
	Duration     time.Duration
	Container    Container
	Resolution   string // e.g. "360p", "720p"
	// Renditions is the bitrate ladder (bps, ascending): the same
	// content encoded at every rung, sharing Duration and Container.
	// Empty means a single-bitrate video at EncodingRate — the legacy
	// shape every Table-1 player streams.
	Renditions []float64
}

// Size returns the total video size in bytes.
func (v Video) Size() int64 {
	return int64(v.EncodingRate / 8 * v.Duration.Seconds())
}

// Ladder returns the rendition ladder: Renditions when present,
// otherwise the one-rung ladder {EncodingRate}. Ladder rungs are
// ascending bps; index len-1 is the top rung.
func (v Video) Ladder() []float64 {
	if len(v.Renditions) > 0 {
		return v.Renditions
	}
	return []float64{v.EncodingRate}
}

// AtRung returns the per-rendition view of the video: the same entry
// with EncodingRate set to ladder rung i (clamped), so Size, headers
// and byte-range math all apply to that rendition's resource.
func (v Video) AtRung(i int) Video {
	ladder := v.Ladder()
	if i < 0 {
		i = 0
	}
	if i >= len(ladder) {
		i = len(ladder) - 1
	}
	v.EncodingRate = ladder[i]
	return v
}

// WithLadder returns the video encoded at the given ascending ladder,
// with EncodingRate pinned to the top rung.
func (v Video) WithLadder(rates ...float64) Video {
	v.Renditions = append([]float64(nil), rates...)
	if len(rates) > 0 {
		v.EncodingRate = rates[len(rates)-1]
	}
	return v
}

// RungIndex returns the ladder index whose bitrate matches rate to
// within 1 kbps, or -1.
func (v Video) RungIndex(rate float64) int {
	for i, r := range v.Ladder() {
		if diff := r - rate; diff < 1000 && diff > -1000 {
			return i
		}
	}
	return -1
}

// String identifies the video in logs.
func (v Video) String() string {
	return fmt.Sprintf("video %d (%s %s, %.2f Mbps, %s)", v.ID, v.Container, v.Resolution, v.EncodingRate/1e6, v.Duration.Round(time.Second))
}

// Header sizes of the synthetic containers.
const (
	FLVHeaderSize  = 16
	WebMHeaderSize = 20
	MP4FragHeader  = 24
)

// Magic numbers for the synthetic headers. FLV and EBML magics match
// the real formats' leading bytes so the analyzer's sniffing logic is
// honest.
var (
	flvMagic  = []byte{'F', 'L', 'V', 0x01}
	ebmlMagic = []byte{0x1A, 0x45, 0xDF, 0xA3}
	moofMagic = []byte{'m', 'o', 'o', 'f'}
)

// invalidFrameRate is the broken field the paper found in YouTube's
// WebM files ("we observed an invalid entry for the frame rate in the
// header of the webM files", Section 5).
const invalidFrameRate = 0xFFFFFFFF

// EncodeFLVHeader produces the first FLVHeaderSize bytes of a Flash
// video stream: magic, encoding rate (bps), duration (ms).
func EncodeFLVHeader(v Video) []byte {
	b := make([]byte, FLVHeaderSize)
	copy(b, flvMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(v.EncodingRate))
	binary.BigEndian.PutUint32(b[8:], uint32(v.Duration/time.Millisecond))
	binary.BigEndian.PutUint32(b[12:], uint32(v.ID))
	return b
}

// EncodeWebMHeader produces the first WebMHeaderSize bytes of an HTML5
// video stream. Deliberately, the frame-rate field is invalid and no
// encoding rate is present — matching what the paper found — so
// consumers must fall back to Content-Length/duration.
func EncodeWebMHeader(v Video) []byte {
	b := make([]byte, WebMHeaderSize)
	copy(b, ebmlMagic)
	binary.BigEndian.PutUint32(b[4:], invalidFrameRate)
	binary.BigEndian.PutUint32(b[8:], uint32(v.Duration/time.Millisecond))
	binary.BigEndian.PutUint32(b[12:], uint32(v.ID))
	return b
}

// EncodeMP4FragHeader produces a Netflix-style fragment header with
// the fragment's encoding rate and duration.
func EncodeMP4FragHeader(v Video, bitrate float64, fragDur time.Duration) []byte {
	b := make([]byte, MP4FragHeader)
	copy(b, moofMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(bitrate))
	binary.BigEndian.PutUint32(b[8:], uint32(fragDur/time.Millisecond))
	binary.BigEndian.PutUint32(b[12:], uint32(v.ID))
	return b
}

// HeaderFor returns the container header bytes a server prepends to
// the byte stream of v.
func HeaderFor(v Video) []byte {
	switch v.Container {
	case Flash:
		return EncodeFLVHeader(v)
	case HTML5:
		return EncodeWebMHeader(v)
	default:
		return EncodeMP4FragHeader(v, v.EncodingRate, 4*time.Second)
	}
}

// FragHeaderRate scans b for a complete MP4 fragment header and
// returns the bitrate (bps) it carries, or 0 when none is present.
// Fragment bodies are media bytes and response headers are ASCII, so
// the moof magic cannot occur except at a true fragment boundary;
// this is how the analyzer segments per-rendition request cycles from
// the wire alone. A header split across a segment boundary is not
// recovered (the span simply continues at the previous rate).
func FragHeaderRate(b []byte) float64 {
	i := bytes.Index(b, moofMagic)
	if i < 0 || i+MP4FragHeader > len(b) {
		return 0
	}
	return float64(binary.BigEndian.Uint32(b[i+4:]))
}

// HeaderInfo is what a trace analyzer can recover from the first bytes
// of a media stream.
type HeaderInfo struct {
	Container    Container
	EncodingRate float64 // bps; 0 when the header does not carry it
	Duration     time.Duration
	RateValid    bool // false for WebM (invalid frame-rate entry)
}

// ErrUnknownContainer marks unrecognized leading bytes.
var ErrUnknownContainer = errors.New("media: unknown container magic")

// ParseHeader sniffs the container from the leading bytes of a media
// stream and extracts what it carries. This is the analyzer-side
// mirror of the Encode functions.
func ParseHeader(b []byte) (HeaderInfo, error) {
	if len(b) >= FLVHeaderSize && string(b[:4]) == string(flvMagic) {
		return HeaderInfo{
			Container:    Flash,
			EncodingRate: float64(binary.BigEndian.Uint32(b[4:])),
			Duration:     time.Duration(binary.BigEndian.Uint32(b[8:])) * time.Millisecond,
			RateValid:    true,
		}, nil
	}
	if len(b) >= WebMHeaderSize && string(b[:4]) == string(ebmlMagic) {
		fr := binary.BigEndian.Uint32(b[4:])
		return HeaderInfo{
			Container: HTML5,
			Duration:  time.Duration(binary.BigEndian.Uint32(b[8:])) * time.Millisecond,
			RateValid: fr != invalidFrameRate && fr != 0,
		}, nil
	}
	if len(b) >= MP4FragHeader && string(b[:4]) == string(moofMagic) {
		return HeaderInfo{
			Container:    Silverlight,
			EncodingRate: float64(binary.BigEndian.Uint32(b[4:])),
			Duration:     time.Duration(binary.BigEndian.Uint32(b[8:])) * time.Millisecond,
			RateValid:    true,
		}, nil
	}
	return HeaderInfo{}, ErrUnknownContainer
}

// NetflixLadder is the bitrate ladder (bps) of a 2011-era Netflix
// title; each video is encoded at every rung and the client chooses
// adaptively (Akhshabi et al. [11]).
var NetflixLadder = []float64{500e3, 1000e3, 1600e3, 2600e3, 3800e3}

// DefaultLadder is the rendition ladder adaptive sessions stream when
// a spec does not supply one: the NetflixLadder rungs, the ladder the
// paper's adaptive clients actually switched across.
func DefaultLadder() []float64 { return append([]float64(nil), NetflixLadder...) }

// durationDist draws a plausible user-generated-content duration:
// log-normal-ish around 3–4 minutes, clamped to [30 s, 60 min].
func durationDist(rng *rand.Rand) time.Duration {
	mins := 0.5 + 3.5*rng.ExpFloat64()
	if mins < 0.5 {
		mins = 0.5
	}
	if mins > 60 {
		mins = 60
	}
	return time.Duration(mins * float64(time.Minute))
}

// movieDuration draws a Netflix-catalog duration: 20 min to 2.5 h.
func movieDuration(rng *rand.Rand) time.Duration {
	mins := 20 + rng.Float64()*130
	return time.Duration(mins * float64(time.Minute))
}

// Dataset is a named collection of videos, mirroring Section 4.1.
type Dataset struct {
	Name   string
	Videos []Video
}

// YouFlash generates n Flash videos with encoding rates 0.2–1.5 Mbps
// at 240p/360p (the paper's YouFlash dataset had 5000).
func YouFlash(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	vids := make([]Video, n)
	for i := range vids {
		res := "240p"
		lo, hi := 0.2e6, 0.7e6
		if rng.Float64() < 0.6 {
			res = "360p"
			lo, hi = 0.4e6, 1.5e6
		}
		vids[i] = Video{
			ID:           100000 + i,
			Title:        fmt.Sprintf("flash-%05d", i),
			EncodingRate: lo + rng.Float64()*(hi-lo),
			Duration:     durationDist(rng),
			Container:    Flash,
			Resolution:   res,
		}
	}
	return Dataset{Name: "YouFlash", Videos: vids}
}

// YouHD generates n HD (720p) Flash videos, 0.2–4.8 Mbps.
func YouHD(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	vids := make([]Video, n)
	for i := range vids {
		vids[i] = Video{
			ID:           200000 + i,
			Title:        fmt.Sprintf("hd-%05d", i),
			EncodingRate: 0.2e6 + rng.Float64()*4.6e6,
			Duration:     durationDist(rng),
			Container:    Flash,
			Resolution:   "720p",
		}
	}
	return Dataset{Name: "YouHD", Videos: vids}
}

// YouHtml generates the HTML5 dataset: the paper built it from 2500
// YouFlash videos plus 500 YouHD videos, all streamed via the HTML5
// player at 360p; rates span 0.2–2.5 Mbps. We mirror the 5:1 mix.
func YouHtml(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	vids := make([]Video, n)
	for i := range vids {
		rate := 0.2e6 + rng.Float64()*1.3e6
		if i%6 == 5 { // the ex-HD sixth, transcoded to <= 2.5 Mbps
			rate = 1.0e6 + rng.Float64()*1.5e6
		}
		vids[i] = Video{
			ID:           300000 + i,
			Title:        fmt.Sprintf("html5-%05d", i),
			EncodingRate: rate,
			Duration:     durationDist(rng),
			Container:    HTML5,
			Resolution:   "360p",
		}
	}
	return Dataset{Name: "YouHtml", Videos: vids}
}

// YouMob generates the mobile dataset (native apps, HTML5 container),
// 0.2–2.7 Mbps.
func YouMob(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	vids := make([]Video, n)
	for i := range vids {
		vids[i] = Video{
			ID:           400000 + i,
			Title:        fmt.Sprintf("mob-%05d", i),
			EncodingRate: 0.2e6 + rng.Float64()*2.5e6,
			Duration:     durationDist(rng),
			Container:    HTML5,
			Resolution:   "360p",
		}
	}
	return Dataset{Name: "YouMob", Videos: vids}
}

// NetPC generates the Netflix PC dataset (the paper sampled 200 from
// the 11208 watch-instantly titles). EncodingRate holds the top ladder
// rung; the client picks its rung adaptively.
func NetPC(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	vids := make([]Video, n)
	for i := range vids {
		vids[i] = Video{
			ID:           500000 + i,
			Title:        fmt.Sprintf("netflix-%05d", i),
			EncodingRate: NetflixLadder[len(NetflixLadder)-1],
			Duration:     movieDuration(rng),
			Container:    Silverlight,
			Resolution:   "adaptive",
		}
	}
	return Dataset{Name: "NetPC", Videos: vids}
}

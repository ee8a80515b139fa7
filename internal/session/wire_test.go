package session

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/trace"
)

// TestPcapWireBytesPinned pins the exact bytes trace.PcapSink writes for
// three 30 s sessions, by SHA-256. The pcap round trip (vanalyze
// re-exporting vsession's export) compares two serializations of the
// same run, so a change that alters both the same way passes it; these
// hashes do not move unless a header, a payload byte or a timestamp
// does. Flash on Research sends long paced runs of zero body bytes,
// Firefox on Residence adds loss and retransmissions, and the Netflix
// Android client cuts many segments that span a fragment header and the
// zero body behind it.
//
// The sessions are the ones vsession runs with -capture 30 (seed 1, a
// 1 Mbps, 300 s video), so `vsession -app <kind> -network <profile>
// -capture 30 -pcap out.pcap` writes a file with the same hash.
func TestPcapWireBytesPinned(t *testing.T) {
	cases := []struct {
		name      string
		service   ServiceKind
		container media.Container
		newPlayer func() player.Player
		network   netem.Profile
		sha256    string
	}{
		{"flash/Research", YouTube, media.Flash, func() player.Player { return player.NewFlashPlayer() }, netem.Research,
			"53837a67e67da93ad9e9036cb2af2c8ea9a84c9be9cd492571ddca43d9c46949"},
		{"firefox/Residence", YouTube, media.HTML5, func() player.Player { return player.NewFirefoxHtml5() }, netem.Residence,
			"6ff06c57e017a90c81ca98bdc00e1f5739906cc7a4e25afada3e3037fd0d8f20"},
		{"netflix-android/Residence", Netflix, media.Silverlight, func() player.Player { return player.NewNetflixAndroid() }, netem.Residence,
			"164417e4d2ee4bcbd06714eef06a712c53b677a9bc235369925d0ce8e00b8819"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := media.Video{ID: 1, Title: "cli-video", EncodingRate: 1e6, Duration: 300 * time.Second,
				Container: tc.container, Resolution: "360p"}
			if tc.service == Netflix {
				v.Resolution = "adaptive"
			}
			h := sha256.New()
			ps, err := trace.NewPcapSink(h, 0)
			if err != nil {
				t.Fatal(err)
			}
			Run(Config{
				Video: v, Service: tc.service, Player: tc.newPlayer(),
				Network: tc.network, Duration: 30 * time.Second, Seed: 1, Capture: ps,
			})
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
				t.Fatalf("pcap SHA-256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}

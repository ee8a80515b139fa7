package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/trace"
)

// TestRunReexportsInput: a Flash session exported at full snaplen and
// at tcpdump's header-only 96 bytes must each re-export through run
// to exactly its input bytes, global header included.
func TestRunReexportsInput(t *testing.T) {
	kind, ok := scenario.PlayerKindByName("flash")
	prof, ok2 := netem.ProfileByName("Residence")
	if !ok || !ok2 {
		t.Fatal("flash player or Residence profile missing")
	}
	dir := t.TempDir()
	for _, snaplen := range []int{0, 96} {
		in := filepath.Join(dir, fmt.Sprintf("snap%d.pcap", snaplen))
		f, err := os.Create(in)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := trace.NewPcapSink(f, snaplen)
		if err != nil {
			t.Fatal(err)
		}
		session.Run(session.Config{
			Video: media.Video{
				ID: 1, EncodingRate: 1e6, Duration: 300 * time.Second,
				Container: kind.NativeContainer(), Resolution: "360p",
			},
			Service:  kind.Service(),
			Player:   kind.New(),
			Network:  prof,
			Duration: 20 * time.Second,
			Seed:     1,
			Capture:  sink,
		})
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		re := filepath.Join(dir, fmt.Sprintf("re%d.pcap", snaplen))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-pcap", re, in}, &stdout, &stderr); code != 0 {
			t.Fatalf("snaplen %d: run exited %d: %s", snaplen, code, stderr.String())
		}
		want, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(re)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snaplen %d: re-export is %d bytes, input %d; not byte-equal", snaplen, len(got), len(want))
		}
		if !bytes.Contains(stdout.Bytes(), []byte("strategy")) {
			t.Fatalf("snaplen %d: no report on stdout: %q", snaplen, stdout.String())
		}
	}
}

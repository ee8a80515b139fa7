// Command vanalyze applies the paper's trace analysis to an existing
// libpcap capture (one produced by vsession, or by tcpdump with the
// raw-IP link type): phase detection, block sizes, accumulation ratio
// and strategy classification. The records stream straight through the
// sink pipeline — packets are never buffered in memory (captures that
// start mid-connection, with no handshake, defer 16 bytes per data
// packet until EOF; see analysis.Streaming) — and can be fanned out to
// a pcap re-export at the input's snaplen at the same time.
//
// Usage:
//
//	vanalyze -client 10.0.0.1 [-duration 300] [-pcap out.pcap] session.pcap
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/pcap"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run analyzes the capture that args name and prints the report to
// stdout. It returns the exit status: 0, 1 for a failed run and 2 for
// bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	client := fs.String("client", "10.0.0.1", "client (vantage) IPv4 address")
	duration := fs.Float64("duration", 0, "video duration in seconds (for the WebM rate fallback)")
	rate := fs.Float64("rate", 0, "known encoding rate in Mbps (optional)")
	pcapOut := fs.String("pcap", "", "re-export the parsed capture to this pcap file")
	verbose := fs.Bool("v", false, "print every ON-OFF cycle")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, v ...any) int {
		fmt.Fprintf(stderr, "vanalyze: "+format+"\n", v...)
		return 1
	}
	if fs.NArg() != 1 {
		return fail("usage: vanalyze [flags] capture.pcap")
	}
	addr, err := parseIPv4(*client)
	if err != nil {
		return fail("%v", err)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	defer f.Close()
	// The re-export keeps the input's snaplen, so a truncated capture
	// re-exports as it was: read the global header first, then replay
	// its bytes ahead of the records.
	var header bytes.Buffer
	pr, err := pcap.NewReader(io.TeeReader(f, &header))
	if err != nil {
		return fail("reading capture: %v", err)
	}
	input := io.MultiReader(&header, f)

	cfg := analysis.Config{
		KnownDuration: time.Duration(*duration * float64(time.Second)),
		KnownRate:     *rate * 1e6,
	}
	// The analyzer and the optional re-export ride one packet stream
	// through a sink fan-out: one read of the input, two consumers,
	// O(1) memory even for multi-GB captures.
	stream := analysis.NewStreaming(cfg)
	sinks := []trace.Sink{stream}
	var out *os.File
	tmpOut := *pcapOut + ".tmp"
	abort := func(format string, v ...any) int {
		if out != nil {
			out.Close()
			os.Remove(tmpOut)
		}
		return fail(format, v...)
	}
	if *pcapOut != "" {
		// Stream into a temp file and rename only after a successful
		// run, so a malformed input never truncates a previous export.
		out, err = os.Create(tmpOut)
		if err != nil {
			return fail("creating pcap: %v", err)
		}
		ps, err := trace.NewPcapSink(out, pr.SnapLen)
		if err != nil {
			return abort("starting pcap stream: %v", err)
		}
		sinks = append(sinks, ps)
	}
	sink := trace.Fanout(sinks...)
	if err := trace.StreamPcap(input, addr, sink); err != nil {
		return abort("reading capture: %v", err)
	}
	if err := sink.Close(); err != nil {
		return abort("writing pcap: %v", err)
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return fail("closing pcap: %v", err)
		}
		if err := os.Rename(tmpOut, *pcapOut); err != nil {
			return fail("finalizing pcap: %v", err)
		}
	}
	a := stream.Result()
	fmt.Fprintf(stdout, "strategy          : %s\n", a.Strategy)
	fmt.Fprintf(stdout, "connections       : %d\n", a.ConnCount)
	fmt.Fprintf(stdout, "total downstream  : %.2f MB over %.1f s\n", float64(a.TotalBytes)/1e6, a.Duration.Seconds())
	fmt.Fprintf(stdout, "buffering phase   : %.2f s, %.2f MB\n", a.BufferingEnd.Seconds(), float64(a.BufferedBytes)/1e6)
	if a.HasSteadyState {
		fmt.Fprintf(stdout, "steady state      : %d blocks, median %.0f kB, rate %.2f Mbps\n",
			len(a.Blocks), float64(a.MedianBlock())/1e3, a.SteadyRate/1e6)
	}
	if a.Media.EncodingRate > 0 {
		fmt.Fprintf(stdout, "encoding rate     : %.2f Mbps (source: %s, container: %s)\n",
			a.Media.EncodingRate/1e6, a.Media.RateSource, a.Media.Container)
	}
	if a.AccumulationRatio > 0 {
		fmt.Fprintf(stdout, "accumulation ratio: %.2f\n", a.AccumulationRatio)
	}
	fmt.Fprintf(stdout, "retransmissions   : %d/%d data segments (%.2f%%)\n", a.Retrans, a.DataSegs, a.RetransRate*100)
	fmt.Fprintf(stdout, "estimated RTT     : %v\n", a.RTT)
	if *verbose {
		for i, c := range a.Cycles {
			fmt.Fprintf(stdout, "cycle %3d: %8.3fs..%8.3fs %10d bytes, OFF %v\n",
				i, c.Start.Seconds(), c.End.Seconds(), c.Bytes, c.OffAfter)
		}
	}
	return 0
}

func parseIPv4(s string) ([4]byte, error) {
	var out [4]byte
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return out, fmt.Errorf("bad IPv4 %q", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return out, fmt.Errorf("bad IPv4 %q", s)
		}
		out[i] = byte(v)
	}
	return out, nil
}

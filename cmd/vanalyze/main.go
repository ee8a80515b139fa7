// Command vanalyze applies the paper's trace analysis to an existing
// libpcap capture (one produced by vsession, or by tcpdump with the
// raw-IP link type): phase detection, block sizes, accumulation ratio
// and strategy classification. The records stream straight through the
// sink pipeline — packets are never buffered in memory (captures that
// start mid-connection, with no handshake, defer 16 bytes per data
// packet until EOF; see analysis.Streaming) — and can be fanned out to
// a normalized pcap re-export at the same time.
//
// Usage:
//
//	vanalyze -client 10.0.0.1 [-duration 300] [-pcap out.pcap] session.pcap
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func main() {
	client := flag.String("client", "10.0.0.1", "client (vantage) IPv4 address")
	duration := flag.Float64("duration", 0, "video duration in seconds (for the WebM rate fallback)")
	rate := flag.Float64("rate", 0, "known encoding rate in Mbps (optional)")
	pcapOut := flag.String("pcap", "", "re-export the parsed capture to this pcap file")
	verbose := flag.Bool("v", false, "print every ON-OFF cycle")
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: vanalyze [flags] capture.pcap")
	}
	addr, err := parseIPv4(*client)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

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
	if *pcapOut != "" {
		// Stream into a temp file and rename only after a successful
		// run, so a malformed input never truncates a previous export.
		out, err = os.Create(tmpOut)
		if err != nil {
			fatalf("creating pcap: %v", err)
		}
		ps, err := trace.NewPcapSink(out, 0)
		if err != nil {
			fatalf("starting pcap stream: %v", err)
		}
		sinks = append(sinks, ps)
	}
	abort := func(format string, args ...any) {
		if out != nil {
			out.Close()
			os.Remove(tmpOut)
		}
		fatalf(format, args...)
	}
	sink := trace.Fanout(sinks...)
	if err := trace.StreamPcap(f, addr, sink); err != nil {
		abort("reading capture: %v", err)
	}
	if err := sink.Close(); err != nil {
		abort("writing pcap: %v", err)
	}
	if out != nil {
		if err := out.Close(); err != nil {
			fatalf("closing pcap: %v", err)
		}
		if err := os.Rename(tmpOut, *pcapOut); err != nil {
			fatalf("finalizing pcap: %v", err)
		}
	}
	a := stream.Result()
	fmt.Printf("strategy          : %s\n", a.Strategy)
	fmt.Printf("connections       : %d\n", a.ConnCount)
	fmt.Printf("total downstream  : %.2f MB over %.1f s\n", float64(a.TotalBytes)/1e6, a.Duration.Seconds())
	fmt.Printf("buffering phase   : %.2f s, %.2f MB\n", a.BufferingEnd.Seconds(), float64(a.BufferedBytes)/1e6)
	if a.HasSteadyState {
		fmt.Printf("steady state      : %d blocks, median %.0f kB, rate %.2f Mbps\n",
			len(a.Blocks), float64(a.MedianBlock())/1e3, a.SteadyRate/1e6)
	}
	if a.Media.EncodingRate > 0 {
		fmt.Printf("encoding rate     : %.2f Mbps (source: %s, container: %s)\n",
			a.Media.EncodingRate/1e6, a.Media.RateSource, a.Media.Container)
	}
	if a.AccumulationRatio > 0 {
		fmt.Printf("accumulation ratio: %.2f\n", a.AccumulationRatio)
	}
	fmt.Printf("retransmissions   : %d/%d data segments (%.2f%%)\n", a.Retrans, a.DataSegs, a.RetransRate*100)
	fmt.Printf("estimated RTT     : %v\n", a.RTT)
	if *verbose {
		for i, c := range a.Cycles {
			fmt.Printf("cycle %3d: %8.3fs..%8.3fs %10d bytes, OFF %v\n",
				i, c.Start.Seconds(), c.End.Seconds(), c.Bytes, c.OffAfter)
		}
	}
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vanalyze: "+format+"\n", args...)
	os.Exit(1)
}

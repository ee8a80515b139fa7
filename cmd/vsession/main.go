// Command vsession runs one simulated streaming session — the
// equivalent of the paper's "start tcpdump, load the video URL, stop
// after 180 seconds" loop — and prints an analysis summary. -pcap
// streams the capture to a pcap file as the session runs, and -csv
// writes the cumulative download series; neither buffers the packets.
//
// The -app names are the scenario player kinds (vsession -list prints
// them with their service). The browser is a label only for the Flash
// plugin, so one "flash" kind stands for the paper's three Flash rows.
//
// Usage:
//
//	vsession -app flash -network Research -rate 1.0 -dur 300 \
//	         -capture 180 -pcap session.pcap -csv series.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/trace"
)

func main() {
	app := flag.String("app", "flash", "player kind (see -list)")
	network := flag.String("network", "Research", "vantage network: Research, Residence, Academic, Home")
	rate := flag.Float64("rate", 1.0, "video encoding rate in Mbps")
	dur := flag.Float64("dur", 300, "video duration in seconds")
	capture := flag.Float64("capture", 180, "capture duration in seconds")
	seed := flag.Int64("seed", 1, "random seed")
	pcapPath := flag.String("pcap", "", "write the capture to this pcap file")
	csvPath := flag.String("csv", "", "write the cumulative download series to this CSV file")
	list := flag.Bool("list", false, "list player kinds with their service and exit")
	flag.Parse()

	if *list {
		for _, k := range scenario.PlayerKinds() {
			fmt.Printf("%-16s %s\n", k, k.Service())
		}
		return
	}
	kind, ok := scenario.PlayerKindByName(*app)
	if !ok {
		fatalf("unknown player kind %q (see -list)", *app)
	}
	prof, ok := netem.ProfileByName(*network)
	if !ok {
		fatalf("unknown network %q", *network)
	}
	v := media.Video{
		ID:           1,
		Title:        "cli-video",
		EncodingRate: *rate * 1e6,
		Duration:     time.Duration(*dur * float64(time.Second)),
		Container:    kind.NativeContainer(),
		Resolution:   "360p",
	}
	if kind.Service() == session.Netflix {
		v.Resolution = "adaptive"
	}
	// Attach only the sinks the output flags ask for.
	var sinks []trace.Sink
	var pcapFile *os.File
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fatalf("creating pcap: %v", err)
		}
		ps, err := trace.NewPcapSink(f, 0)
		if err != nil {
			fatalf("writing pcap: %v", err)
		}
		pcapFile = f
		sinks = append(sinks, ps)
	}
	series := &trace.Series{}
	if *csvPath != "" {
		sinks = append(sinks, series)
	}
	sink := trace.Fanout(sinks...)
	res := session.Run(session.Config{
		Video:    v,
		Service:  kind.Service(),
		Player:   kind.New(),
		Network:  prof,
		Duration: time.Duration(*capture * float64(time.Second)),
		Seed:     *seed,
		Capture:  sink,
	})
	if err := sink.Close(); err != nil {
		fatalf("writing pcap: %v", err)
	}
	a := res.Analysis
	fmt.Printf("session : %s on %s, %s\n", kind, prof.Name, v)
	fmt.Printf("capture : %d packets, %.2f MB down, %d connections\n",
		res.Packets, float64(a.TotalBytes)/1e6, a.ConnCount)
	fmt.Printf("result  : %s\n", a)
	q := res.QoE
	fmt.Printf("playback: startup %.2f s, %d rebuffer(s) (%.1f s), %d switch(es)\n",
		q.StartupDelay.Seconds(), q.Rebuffers, q.RebufferTime.Seconds(), q.Switches)
	if len(a.Rungs) > 0 {
		fmt.Printf("rungs   : %d rendition cycle(s), %d switch(es) on the wire\n",
			len(a.Rungs), a.RungSwitches)
	}

	if pcapFile != nil {
		if err := pcapFile.Close(); err != nil {
			fatalf("closing pcap: %v", err)
		}
		fmt.Printf("pcap    : %s\n", *pcapPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatalf("creating csv: %v", err)
		}
		w := csv.NewWriter(f)
		_ = w.Write([]string{"t_seconds", "bytes"})
		for _, p := range series.Download {
			_ = w.Write([]string{
				strconv.FormatFloat(p.TS.Seconds(), 'f', 6, 64),
				strconv.FormatInt(p.Bytes, 10),
			})
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fatalf("writing csv: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing csv: %v", err)
		}
		fmt.Printf("csv     : %s\n", *csvPath)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vsession: "+format+"\n", args...)
	os.Exit(1)
}

package scenario

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/tcp"
)

// ccMixFleet is the heterogeneous-transport fleet the determinism
// suite runs: all three congestion controllers interleaved across the
// clients of a tree whose contended tiers run AQM — the full PR 9
// surface in one spec. Spanning several cells makes the CC assignment
// cross cell boundaries, which is exactly where a sharding-dependent
// assignment bug would show.
func ccMixFleet() Fleet {
	f := detFleet()
	f.Clients = 100 // 4 cells on the default 32-per-agg grouping
	f.CCMix = []string{tcp.CCReno, tcp.CCCubic, tcp.CCBbr}
	f.Tree.Agg.AQM = netem.AqmConfig{Kind: netem.AqmCoDel}
	f.Tree.Access.AQM = netem.AqmConfig{Kind: netem.AqmRED}
	f.Exact = true
	return f
}

// TestFleetMixedCCDeterministic: a mixed-CC, AQM-enabled fleet is the
// worker-count determinism guarantee's hardest case — per-client
// controller state must be derived from the global client index alone.
// One worker and an oversubscribed pool must produce DeepEqual results
// and byte-identical serialized artifacts.
func TestFleetMixedCCDeterministic(t *testing.T) {
	f := ccMixFleet()
	seq := RunFleet(runner.Options{Workers: 1}, f)
	par := RunFleet(runner.Options{Workers: runtime.NumCPU() + 3}, f)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("mixed-CC fleet differs between worker counts:\nseq: %s\npar: %s",
			seq.Render(), par.Render())
	}
	a, err := seq.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("serialized mixed-CC FleetResult differs between worker counts")
	}
	if seq.ActiveClients == 0 || seq.Downloaded == 0 {
		t.Fatalf("mixed-CC fleet streamed nothing: %s", seq.Render())
	}
}

// TestFleetMixedCCDistributedInvariant: the serialized distributed
// path (WriteFleetCells streams merged with MergeFleetCellStreams, what
// `vfleet -distributed` children emit) must reproduce the
// single-process mixed-CC result bit for bit.
func TestFleetMixedCCDistributedInvariant(t *testing.T) {
	f := ccMixFleet()
	single := RunFleet(runner.Options{Workers: 1}, f)
	singleBytes, _ := single.MarshalBinary()
	cells := f.Cells()
	if cells < 2 {
		t.Fatalf("fleet too small to split: %d cells", cells)
	}
	cuts := []int{0, cells / 2, cells}
	var readers []io.Reader
	for i := 0; i+1 < len(cuts); i++ {
		var buf bytes.Buffer
		if err := WriteFleetCells(&buf, runner.Options{Workers: 2}, f, cuts[i], cuts[i+1]); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, &buf)
	}
	merged, err := MergeFleetCellStreams(f, readers...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatalf("merged mixed-CC cells differ from single-process run:\nmerged: %s\nsingle: %s",
			merged.Render(), single.Render())
	}
	mergedBytes, _ := merged.MarshalBinary()
	if !bytes.Equal(mergedBytes, singleBytes) {
		t.Fatal("merged mixed-CC artifact bytes differ from single-process bytes")
	}
}

// TestParseCCMix covers the textual mix syntax and its error cases.
func TestParseCCMix(t *testing.T) {
	good := []struct {
		in   string
		want []string
	}{
		{"reno", []string{"reno"}},
		{"cubic", []string{"cubic"}},
		{"reno:2+cubic:1", []string{"reno", "reno", "cubic"}},
		{"RENO,BBR", []string{"reno", "bbr"}},
		{" reno : 1 , cubic : 2 ", []string{"reno", "cubic", "cubic"}},
	}
	for _, c := range good {
		got, err := ParseCCMix(c.in)
		if err != nil {
			t.Fatalf("ParseCCMix(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseCCMix(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "vegas", "reno:0", "reno:-1", "reno:9999", "reno:x", ":2"} {
		if _, err := ParseCCMix(bad); err == nil {
			t.Fatalf("ParseCCMix(%q) accepted", bad)
		}
	}
}

// TestFleetCCMixValidation: unknown controller names must be rejected
// at spec validation, both in the mix and in the server default.
func TestFleetCCMixValidation(t *testing.T) {
	f := detFleet()
	f.CCMix = []string{"reno", "vegas"}
	if err := f.Validate(); err == nil {
		t.Fatal("unknown CC in mix validated")
	}
	f = detFleet()
	f.ServerTCP.CC = "vegas"
	if err := f.Validate(); err == nil {
		t.Fatal("unknown ServerTCP.CC validated")
	}
	f = detFleet()
	f.CCMix = []string{tcp.CCCubic}
	if err := f.Validate(); err != nil {
		t.Fatalf("valid CC mix rejected: %v", err)
	}
}

// TestSharedResultAqmDrops: a shared-bottleneck run with CoDel on a
// strained profile reports its policy drops in the OutageDrops-style
// AqmDrops counter, consistent with the induced-loss accounting.
func TestSharedResultAqmDrops(t *testing.T) {
	prof := netem.Profile{Name: "strained", Down: 3 * netem.Mbps, Up: 1 * netem.Mbps,
		RTT: 40 * time.Millisecond, Queue: 256 << 10, UpLoss: -1,
		AQM: netem.AqmConfig{Kind: netem.AqmCoDel}}
	res := RunShared(Spec{
		Profile:  prof,
		Player:   Flash,
		Sessions: 4,
		Duration: 30 * time.Second,
		Seed:     3,
	})
	if res.AqmDrops == 0 {
		t.Fatalf("CoDel on a strained shared bottleneck dropped nothing: %d total drops", res.Dropped)
	}
	if res.AqmDrops > res.Dropped {
		t.Fatalf("AqmDrops %d exceeds Dropped %d", res.AqmDrops, res.Dropped)
	}
	if res.OutageDrops != 0 {
		t.Fatalf("no outage in the timeline but OutageDrops = %d", res.OutageDrops)
	}
}

package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"runtime under a layer", []string{"runtime.mallocgc", "runtime.newobject", "repro/internal/sim.(*Scheduler).At", "main.main"}, "sim"},
		{"inlined frame", []string{"repro/internal/packet.(*Segment).Len", "repro/internal/netem.(*Link).pump", "repro/internal/sim.(*Scheduler).RunUntil"}, "packet"},
		{"closure", []string{"repro/internal/runner.MapN.func1", "runtime.goexit"}, "runner"},
		{"generic from a layer", []string{"repro/internal/runner.Map[go.shape.struct { repro/internal/session.Config },go.shape.*uint8].func1"}, "runner"},
		{"generic outside every layer", []string{"slices.pdqsortCmpFunc[go.shape.*repro/internal/stats.bin]", "sort.Slice", "main.(*bench).rep"}, "harness"},
		{"harness", []string{"crypto/sha256.block", "main.fleetOutput.check", "main.(*bench).check"}, "harness"},
		{"no repro frame", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc"},
		{"empty", nil, "gc"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %s, want %s", c.name, got, c.want)
		}
	}
}

// cannedTraces has the shape `go tool pprof -sample_index=samples
// -traces` prints: a header, then a dashed separator before each stack,
// the sample count on the innermost frame's line, "(inline)" on inlined
// frames, and label lines ahead of a stack's frames. The stack labelled
// by the calibration kernel must be dropped.
const cannedTraces = `File: vperf
Type: samples
Time: 2026-10-16 02:00:00 UTC
Duration: 7.51s, Total samples = 1402
-----------+-------------------------------------------------------
        12   runtime.mallocgc
             runtime.newobject
             repro/internal/sim.(*Scheduler).At
             repro/internal/tcp.(*Conn).send
-----------+-------------------------------------------------------
         5   repro/internal/packet.(*Segment).Len (inline)
             repro/internal/netem.(*Link).pump
-----------+-------------------------------------------------------
         7   repro/internal/runner.Map[go.shape.struct { repro/internal/session.Config },go.shape.*uint8].func1
             runtime.goexit
-----------+-------------------------------------------------------
         3   slices.pdqsortCmpFunc[go.shape.*repro/internal/stats.bin]
             main.(*bench).rep
-----------+-------------------------------------------------------
       pid:  7
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     vperf:  calibrate
        40   main.calLoop
             main.calibrate.func1.1
-----------+-------------------------------------------------------
       100   repro/internal/sim.(*wheel).nextOccupied (inline)
             repro/internal/sim.(*Scheduler).RunUntil
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 112, "packet": 5, "runner": 7, "harness": 3, "gc": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n        x   runtime.main\n")); err == nil {
		t.Error("parseTraces accepted a stack with no sample count")
	}
}

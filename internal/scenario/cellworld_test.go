package scenario

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestFleetFreshVsRecycledWorlds is the equivalence suite of the
// cell-world recycling contract: a fleet run on per-worker recycled
// worlds must serialize to exactly the bytes a run that constructs a
// fresh world per cell produces, at the full determinism-test scale
// and for both serial and pooled execution.
func TestFleetFreshVsRecycledWorlds(t *testing.T) {
	f := detFleet()
	recycled := RunFleet(runner.Options{Workers: 4}, f)
	rb, err := recycled.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	f.FreshWorlds = true
	for _, workers := range []int{1, 4} {
		fresh := RunFleet(runner.Options{Workers: workers}, f)
		fb, err := fresh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb, fb) {
			t.Fatalf("fresh worlds (workers=%d) produce different bytes than recycled worlds", workers)
		}
		if fresh.Render() != recycled.Render() {
			t.Fatalf("fresh worlds (workers=%d) render differently than recycled worlds", workers)
		}
	}
}

// fuzzFleet is the small spec FuzzCellWorldReset worlds run: three
// cells, the last one ragged (8 of 16 slots), so the golden cell
// replays into a world whose spare slots still hold a fuller cell's
// state.
func fuzzFleet(seed int64) Fleet {
	f := Fleet{
		Mix:      []MixEntry{{Player: Flash, Weight: 1}, {Player: FirefoxHtml5, Weight: 1}},
		Clients:  40,
		Duration: 5 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 3 * time.Second},
		Seed:     seed,
	}
	f.Tree.ClientsPerAgg = 16
	return f.withDefaults()
}

// runCellBytes serializes one cell run of w.
func runCellBytes(t testing.TB, w *cellWorld, cell int) []byte {
	t.Helper()
	from := cell * w.per
	to := from + w.per
	if to > w.f.Clients {
		to = w.f.Clients
	}
	r := w.run(from, to)
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEmittedCellResultsStayValid pins that a cell's result belongs to
// emit: a consumer that keeps every emitted result must still hold each
// cell's own bytes after the range has run later cells on the same
// recycled worlds.
func TestEmittedCellResultsStayValid(t *testing.T) {
	spec := fuzzFleet(5)
	var kept []*FleetResult
	runFleetCellRange(runner.Options{Workers: 2}, spec, 0, spec.cells(), func(cell int, r *FleetResult) {
		if cell != len(kept) {
			t.Fatalf("emitted cell %d, want cell %d", cell, len(kept))
		}
		kept = append(kept, r)
	})
	if len(kept) != spec.cells() {
		t.Fatalf("emitted %d cells, want %d", len(kept), spec.cells())
	}
	for cell, r := range kept {
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := runCellBytes(t, newCellWorld(spec), cell); !bytes.Equal(got, want) {
			t.Fatalf("cell %d: the emitted result changed after later cells ran", cell)
		}
	}
}

// FuzzCellWorldReset dirties a recycled world with an arbitrary
// sequence of cells, then runs a golden cell and requires its bytes to
// match a fresh world's — the property that makes recycling invisible
// at any fleet scale. The fuzzer hunts for a (seed, dirt schedule)
// pair under which some layer's Reset leaks state into the next cell.
func FuzzCellWorldReset(f *testing.F) {
	f.Add(int64(11), uint8(0), uint8(1))
	f.Add(int64(7), uint8(2), uint8(3))
	f.Add(int64(-3), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, dirt, rounds uint8) {
		spec := fuzzFleet(seed)
		cells := spec.cells()
		golden := int(dirt+1) % cells

		w := newCellWorld(spec)
		for r := 0; r < int(rounds%3)+1; r++ {
			runCellBytes(t, w, (int(dirt)+r)%cells)
		}
		got := runCellBytes(t, w, golden)

		want := runCellBytes(t, newCellWorld(spec), golden)
		if !bytes.Equal(got, want) {
			t.Fatalf("dirty world (seed=%d dirt=%d rounds=%d) produced different bytes for cell %d", seed, dirt, rounds, golden)
		}
	})
}

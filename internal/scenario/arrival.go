package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// ArrivalKind selects the arrival process for a scenario's sessions.
type ArrivalKind int

// The four processes. AllAtOnce is the degenerate paper setup (one
// measurement at a time starts immediately); the others open the
// time-varying workloads the paper could not capture.
const (
	// AllAtOnce starts every session at t=0.
	AllAtOnce ArrivalKind = iota
	// Staggered spreads starts uniformly at random over Window.
	Staggered
	// Poisson draws exponential inter-arrival times at Rate per
	// second, truncated to Window (a session that would arrive after
	// the window joins at its end).
	Poisson
	// FlashCrowd packs every arrival into the first flashCrowdBurst
	// (10%) of Window: the sudden-audience workload.
	FlashCrowd
)

func (k ArrivalKind) String() string {
	switch k {
	case AllAtOnce:
		return "all-at-once"
	case Staggered:
		return "staggered"
	case Poisson:
		return "poisson"
	case FlashCrowd:
		return "flash-crowd"
	default:
		return "unknown"
	}
}

// ParseArrivalKind resolves an arrival process name, ignoring case:
// any ArrivalKind.String() form, or one of the short spellings
// "allatonce", "all", "uniform", "flashcrowd" and "crowd".
func ParseArrivalKind(name string) (ArrivalKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "all-at-once", "allatonce", "all":
		return AllAtOnce, nil
	case "staggered", "uniform":
		return Staggered, nil
	case "poisson":
		return Poisson, nil
	case "flash-crowd", "flashcrowd", "crowd":
		return FlashCrowd, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q", name)
}

// flashCrowdBurst is the leading fraction of Window that FlashCrowd
// arrivals land in.
const flashCrowdBurst = 0.1

// Arrival is a declarative arrival process.
type Arrival struct {
	Kind   ArrivalKind
	Window time.Duration // span arrivals land in; 0 means 60 s
	Rate   float64       // Poisson arrivals per second; 0 means n/Window
}

// Times returns n sorted start offsets drawn from the process using
// rng. The draw order is fixed, so a given (process, seed) pair always
// produces the same schedule — scenario determinism hangs off this.
func (a Arrival) Times(n int, rng *rand.Rand) []time.Duration {
	return a.TimesInto(nil, n, rng)
}

// TimesInto is Times reusing dst's backing array when it is large
// enough — the per-cell schedule scratch of a recycled fleet world.
// The returned slice holds exactly the same values Times would.
func (a Arrival) TimesInto(dst []time.Duration, n int, rng *rand.Rand) []time.Duration {
	if n <= 0 {
		return dst[:0]
	}
	window := a.Window
	if window <= 0 {
		window = 60 * time.Second
	}
	var out []time.Duration
	if cap(dst) >= n {
		out = dst[:n]
	} else {
		out = make([]time.Duration, n)
	}
	switch a.Kind {
	case Staggered:
		for i := range out {
			out[i] = time.Duration(rng.Int63n(int64(window)))
		}
	case Poisson:
		rate := a.Rate
		if rate <= 0 {
			rate = float64(n) / window.Seconds()
		}
		at := 0.0
		for i := range out {
			at += rng.ExpFloat64() / rate
			d := time.Duration(at * float64(time.Second))
			if d > window {
				d = window
			}
			out[i] = d
		}
	case FlashCrowd:
		span := time.Duration(flashCrowdBurst * float64(window))
		if span <= 0 {
			span = 1
		}
		for i := range out {
			out[i] = time.Duration(rng.Int63n(int64(span)))
		}
	default: // AllAtOnce: zeros
		clear(out)
	}
	slices.Sort(out)
	return out
}

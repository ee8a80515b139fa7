package scenario

import (
	"testing"
	"time"

	"repro/internal/netem"
)

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want netem.Bandwidth
	}{
		{"2Mbps", 2 * netem.Mbps},
		{"750kbps", 750 * netem.Kbps},
		{"1.5Gbps", 1.5 * netem.Gbps},
		{"8000000", 8 * netem.Mbps},
		{"64 kbps", 64 * netem.Kbps},
		{"3mbps", 3 * netem.Mbps},
		{"100bps", 100},
	}
	for _, tc := range cases {
		got, err := ParseBandwidth(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBandwidth(%q) = %v, %v; want %v", tc.in, float64(got), err, float64(tc.want))
		}
	}
	for _, bad := range []string{"", "fast", "-2Mbps", "2Tbps2"} {
		if _, err := ParseBandwidth(bad); err == nil {
			t.Fatalf("ParseBandwidth(%q) accepted", bad)
		}
	}
}

func TestParseDynamics(t *testing.T) {
	d, err := ParseDynamics("rate@30s=2Mbps; loss@45s=0.02; delay@60s=200ms; outage@90s=5s; rate@120s+10s=10Mbps")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 5 {
		t.Fatalf("parsed %d steps, want 5", len(d.Steps))
	}
	st := d.Steps[0]
	if !st.SetRate || st.Rate != 2*netem.Mbps || st.At != 30*time.Second || st.Ramp != 0 {
		t.Fatalf("rate step parsed wrong: %+v", st)
	}
	if !d.Steps[1].SetLoss || d.Steps[1].At != 45*time.Second {
		t.Fatalf("loss step parsed wrong: %+v", d.Steps[1])
	}
	if !d.Steps[2].SetDelay || d.Steps[2].Delay != 200*time.Millisecond {
		t.Fatalf("delay step parsed wrong: %+v", d.Steps[2])
	}
	if d.Steps[3].Outage != 5*time.Second || d.Steps[3].At != 90*time.Second {
		t.Fatalf("outage step parsed wrong: %+v", d.Steps[3])
	}
	ramp := d.Steps[4]
	if !ramp.SetRate || ramp.Ramp != 10*time.Second || ramp.Rate != 10*netem.Mbps {
		t.Fatalf("ramp step parsed wrong: %+v", ramp)
	}

	if d, err := ParseDynamics("  "); err != nil || !d.Empty() {
		t.Fatalf("empty spec: %v, %v", d, err)
	}

	for _, bad := range []string{
		"rate=2Mbps",         // no time
		"rate@30s",           // no value
		"loss@10s=1.5",       // probability out of range
		"warp@10s=9",         // unknown kind
		"delay@10s+5s=200ms", // ramp on non-rate
		"outage@10s=-5s",     // negative outage
		"rate@ten=2Mbps",     // bad time
	} {
		if _, err := ParseDynamics(bad); err == nil {
			t.Fatalf("ParseDynamics(%q) accepted", bad)
		}
	}
}

// TestParseArrivalKind pins the one arrival-name parser both commands
// use: every kind's String() parses back to that kind, the short
// spellings and any case parse, and an unknown name is an error.
func TestParseArrivalKind(t *testing.T) {
	for k := AllAtOnce; k <= FlashCrowd; k++ {
		if got, err := ParseArrivalKind(k.String()); err != nil || got != k {
			t.Fatalf("ParseArrivalKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	aliases := map[string]ArrivalKind{
		"allatonce": AllAtOnce, "all": AllAtOnce, "uniform": Staggered,
		"flashcrowd": FlashCrowd, "crowd": FlashCrowd, "Flash-Crowd": FlashCrowd, " POISSON ": Poisson,
	}
	for name, want := range aliases {
		if got, err := ParseArrivalKind(name); err != nil || got != want {
			t.Fatalf("ParseArrivalKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "unknown", "flash crowd", "burst"} {
		if _, err := ParseArrivalKind(bad); err == nil {
			t.Fatalf("ParseArrivalKind(%q) accepted an unknown process", bad)
		}
	}
}

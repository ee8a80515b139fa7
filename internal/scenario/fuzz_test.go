package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tcp"
)

// FuzzParseDynamics drives the timeline parser with arbitrary specs.
// Properties: the parser never panics, and any timeline it accepts
// must also pass netem's own Validate (the parser promises it runs
// Validate before returning).
func FuzzParseDynamics(f *testing.F) {
	for _, seed := range []string{
		"",
		";",
		"rate@30s=2Mbps",
		"rate@30s+10s=2Mbps; outage@90s=5s",
		"delay@60s=200ms; loss@45s=0.02",
		"rate@5m=750kbps; rate@6m=1.5Gbps; rate@7m=1000000",
		"outage@90s=5s; outage@100s=1s",
		"loss@0s=1",
		"rate@1s=0bps",
		" rate @ 30s = 2Mbps ",
		"rate@30s",
		"=2Mbps",
		"rate@-5s=1Mbps",
		"loss@1s=2",
		"delay@1s+2s=3ms",
		"rate@1h+30m=0.001Gbps",
		"outage@0s=0s",
		"bogus@1s=2",
		"rate@30s+=2Mbps",
		"rate@+10s=2Mbps",
		"loss@45s=NaN",
		"rate@30s=\x002Mbps",
		"aqm@30s=codel",
		"aqm@0s=red",
		"aqm@1s=droptail",
		"aqm@1s=RED",
		"aqm@1s=bogus",
		"aqm@1s=",
		"aqm@2m=codel; rate@3m=1Mbps",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseDynamics(spec)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ParseDynamics(%q) accepted a timeline its own Validate rejects: %v", spec, verr)
		}
		// Accepted specs must produce exactly one step per non-empty
		// event — nothing silently dropped or duplicated — and no rate
		// step may smuggle in a negative bandwidth (ParseBandwidth's
		// own fuzzed invariant, which the event parser must preserve).
		events := 0
		for _, ev := range strings.Split(spec, ";") {
			if strings.TrimSpace(ev) != "" {
				events++
			}
		}
		if len(d.Steps) != events {
			t.Fatalf("ParseDynamics(%q): %d non-empty events became %d steps", spec, events, len(d.Steps))
		}
		for _, st := range d.Steps {
			if st.SetRate && st.Rate < 0 {
				t.Fatalf("ParseDynamics(%q) accepted a negative rate %v", spec, st.Rate)
			}
		}
	})
}

// FuzzParseMix drives the strategy-mix parser with arbitrary specs.
// Properties: no panics; any accepted mix has only weights in
// [1, maxMixWeight] and resolvable player kinds; and the mix
// round-trips through its String rendering — MixString re-parses to
// the identical entry list. The same input also drives ParseCCMix,
// which shares the entry grammar: an accepted cc mix names only known
// controllers and expands to at most maxMixWeight per entry.
func FuzzParseMix(f *testing.F) {
	for _, seed := range []string{
		"",
		"flash",
		"flash:2+firefox:1",
		"flash,chrome",
		"abr-buffer:3+abr-rate:1",
		"flash:0",
		"flash:-1",
		"flash:2x",
		"flash:+2",
		":3",
		"flash:",
		"+",
		",,,",
		" flash : 2 ",
		"netflix-ipad:999999",
		"flash:1024",
		"flash:1025",
		"reno:2+cubic:1",
		"bbr:1024+reno:1024",
		"flash:2+flash:2",
		"winamp:1",
		"flash\x00:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if cc, err := ParseCCMix(spec); err == nil {
			entries := 1 + strings.Count(spec, "+") + strings.Count(spec, ",")
			if len(cc) == 0 || len(cc) > entries*maxMixWeight {
				t.Fatalf("ParseCCMix(%q) expanded %d entries to %d slots", spec, entries, len(cc))
			}
			for _, name := range cc {
				if !tcp.ValidCC(name) {
					t.Fatalf("ParseCCMix(%q) accepted unknown controller %q", spec, name)
				}
			}
		}
		mix, err := ParseMix(spec)
		if err != nil {
			return
		}
		if len(mix) == 0 {
			t.Fatalf("ParseMix(%q) accepted an empty mix", spec)
		}
		for _, e := range mix {
			if e.Weight <= 0 || e.Weight > maxMixWeight {
				t.Fatalf("ParseMix(%q) accepted weight %d for %s outside 1..%d", spec, e.Weight, e.Player, maxMixWeight)
			}
			if _, ok := PlayerKindByName(e.Player.String()); !ok {
				t.Fatalf("ParseMix(%q) produced unresolvable kind %v", spec, e.Player)
			}
		}
		rendered := Fleet{Mix: mix}.MixString()
		again, err := ParseMix(rendered)
		if err != nil {
			t.Fatalf("MixString %q of accepted mix %q does not re-parse: %v", rendered, spec, err)
		}
		if !reflect.DeepEqual(mix, again) {
			t.Fatalf("mix %q does not round-trip: %v -> %q -> %v", spec, mix, rendered, again)
		}
	})
}

// FuzzParseBandwidth covers the unit-suffix parser on its own: no
// panics, and accepted values are non-negative.
func FuzzParseBandwidth(f *testing.F) {
	for _, seed := range []string{"2Mbps", "750kbps", "1.5Gbps", "123", "0bps", "-1Mbps", "Mbps", "1e3kbps", " 2 Mbps "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		bw, err := ParseBandwidth(s)
		if err == nil && bw < 0 {
			t.Fatalf("ParseBandwidth(%q) accepted a negative bandwidth %v", s, bw)
		}
	})
}

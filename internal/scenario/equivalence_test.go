package scenario

// The streaming/buffered equivalence suite: the tentpole guarantee of
// the sink refactor is that the online analyzer (attached at the tap,
// O(flows) state, segment pooling on) and the tcpdump-then-analyze
// pipeline (buffered trace.Trace, pooling off, replayed through
// analysis.Analyze) produce bit-identical Results — across every
// player kind, both scenario shapes, and a pcap round trip.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/netem"
	"repro/internal/session"
	"repro/internal/trace"
)

// runOne expands the spec to its single session config and runs it.
func runOne(t *testing.T, sp Spec, buffered bool) *session.Result {
	t.Helper()
	cfgs := sp.Configs() // fresh player instance per call
	if len(cfgs) != 1 {
		t.Fatalf("expected one config, got %d", len(cfgs))
	}
	cfg := cfgs[0]
	cfg.Buffered = buffered
	return session.Run(cfg)
}

// TestStreamingMatchesBufferedAllPlayers runs every player kind twice
// — once buffered (no segment pool, trace retained) and once streaming
// (pool on, nothing retained) — and demands three-way equality: the
// live streaming analysis of the buffered run, the offline replay of
// its trace, and the independent streaming run.
func TestStreamingMatchesBufferedAllPlayers(t *testing.T) {
	for _, k := range PlayerKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			sp := Spec{
				Player:   k,
				Sessions: 1,
				Duration: 60 * time.Second,
				Seed:     100 + int64(k),
			}
			buffered := runOne(t, sp, true)
			if buffered.Trace == nil || buffered.Trace.Len() == 0 {
				t.Fatal("buffered run captured nothing")
			}
			replay := analysis.Analyze(buffered.Trace, buffered.Config.AnalysisConfig())
			if !reflect.DeepEqual(buffered.Analysis, replay) {
				t.Fatalf("live streaming analysis != buffered replay\nlive:   %+v\nreplay: %+v", buffered.Analysis, replay)
			}
			streaming := runOne(t, sp, false)
			if streaming.Trace != nil {
				t.Fatal("streaming run must not buffer a trace")
			}
			if !reflect.DeepEqual(buffered.Analysis, streaming.Analysis) {
				t.Fatalf("streaming-mode session (segment pool on) diverged from buffered mode\nbuffered:  %+v\nstreaming: %+v", buffered.Analysis, streaming.Analysis)
			}
			if buffered.Downloaded != streaming.Downloaded || buffered.Packets != streaming.Packets {
				t.Fatalf("session accounting diverged: downloaded %d/%d, packets %d/%d",
					buffered.Downloaded, streaming.Downloaded, buffered.Packets, streaming.Packets)
			}
		})
	}
}

// TestStreamingMatchesBufferedShared covers the shared-bottleneck
// shape: per-client dispatch taps feed either per-client streaming
// sinks or per-client traces; every outcome must agree.
func TestStreamingMatchesBufferedShared(t *testing.T) {
	sp := Spec{
		Player:   IEHtml5,
		Sessions: 3,
		Arrival:  Arrival{Kind: Staggered, Window: 15 * time.Second},
		Duration: 45 * time.Second,
		Seed:     9,
	}
	bs := sp
	bs.Buffered = true
	buffered := RunShared(bs)
	streaming := RunShared(sp)

	full := sp.withDefaults()
	for i := range buffered.Outcomes {
		bo, so := buffered.Outcomes[i], streaming.Outcomes[i]
		v := full.video(i)
		replay := analysis.Analyze(bo.Trace, analysis.Config{
			KnownDuration: v.Duration,
			KnownRate:     v.EncodingRate,
		})
		if !reflect.DeepEqual(bo.Analysis, replay) {
			t.Fatalf("client %d: live shared analysis != buffered replay", i)
		}
		if !reflect.DeepEqual(bo.Analysis, so.Analysis) {
			t.Fatalf("client %d: streaming shared run diverged from buffered", i)
		}
		if so.Trace != nil {
			t.Fatalf("client %d: streaming shared run must not buffer a trace", i)
		}
	}
	if buffered.Offered != streaming.Offered || buffered.Dropped != streaming.Dropped {
		t.Fatalf("bottleneck accounting diverged: offered %d/%d dropped %d/%d",
			buffered.Offered, streaming.Offered, buffered.Dropped, streaming.Dropped)
	}
}

// TestStreamingMatchesBufferedPcapRoundTrip writes a buffered capture
// to pcap and classifies it twice — materialized (ReadPcap + Analyze)
// and streamed (StreamPcap into the online analyzer) — expecting
// identical Results.
func TestStreamingMatchesBufferedPcapRoundTrip(t *testing.T) {
	sp := Spec{
		Player:   Flash,
		Sessions: 1,
		Duration: 45 * time.Second,
		Seed:     4,
	}
	r := runOne(t, sp, true)
	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := analysis.Config{} // offline: no out-of-band metadata
	tr, err := trace.ReadPcap(bytes.NewReader(buf.Bytes()), session.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	materialized := analysis.Analyze(tr, cfg)

	st := analysis.NewStreaming(cfg)
	if err := trace.StreamPcap(bytes.NewReader(buf.Bytes()), session.ClientAddr, st); err != nil {
		t.Fatal(err)
	}
	streamed := st.Result()
	if !reflect.DeepEqual(materialized, streamed) {
		t.Fatalf("pcap classification diverged\nmaterialized: %+v\nstreamed:     %+v", materialized, streamed)
	}
	if materialized.Strategy != r.Analysis.Strategy {
		t.Fatalf("strategy from pcap = %v, live = %v", materialized.Strategy, r.Analysis.Strategy)
	}
}

// TestClassifyPcapRoundTrip classifies a saved capture the way vanalyze
// does — StreamPcap into the online analyzer, with no out-of-band
// metadata — and expects the strategy the live session saw. A file with
// no pcap header must error rather than classify as empty.
func TestClassifyPcapRoundTrip(t *testing.T) {
	sp := Spec{
		Profile:  netem.Research,
		Player:   Flash,
		Sessions: 1,
		Duration: 60 * time.Second,
		Seed:     2,
	}
	r := runOne(t, sp, true)
	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	st := analysis.NewStreaming(analysis.Config{})
	if err := trace.StreamPcap(&buf, session.ClientAddr, st); err != nil {
		t.Fatal(err)
	}
	if a := st.Result(); a.Strategy != r.Analysis.Strategy {
		t.Fatalf("pcap classify %v, live %v", a.Strategy, r.Analysis.Strategy)
	}
	junk := []byte("junk....................")
	if err := trace.StreamPcap(bytes.NewReader(junk), session.ClientAddr, analysis.NewStreaming(analysis.Config{})); err == nil {
		t.Fatal("a capture with no pcap header must error")
	}
}

// TestSharedOneClientMatchesSessionRun: a one-session shared run and
// session.Run of the same config are the same simulation. An
// all-at-once arrival draws nothing from the rng, so the shared run's
// only client must see exactly what the plain session sees, on a lossy
// profile with a dynamics timeline, for both services and an ABR kind.
func TestSharedOneClientMatchesSessionRun(t *testing.T) {
	for _, k := range []PlayerKind{Flash, SilverlightPC, AbrRate} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			sp := Spec{
				Profile:  netem.Residence,
				Player:   k,
				Sessions: 1,
				Duration: 45 * time.Second,
				Seed:     21,
				Down:     netem.Dynamics{}.Then(netem.RateStep(20*time.Second, 3*netem.Mbps)),
			}
			shared := RunShared(sp).Outcomes[0]
			full := sp.withDefaults()
			plain := session.Run(session.Config{
				Video:        full.video(0),
				Service:      full.Service(),
				Player:       k.New(),
				Network:      full.Profile,
				Duration:     full.Duration,
				Seed:         full.Seed,
				DownDynamics: full.Down,
			})
			if !reflect.DeepEqual(shared.Analysis, plain.Analysis) {
				t.Fatalf("analysis differs\nshared: %+v\nplain:  %+v", shared.Analysis, plain.Analysis)
			}
			if !reflect.DeepEqual(shared.QoE, plain.QoE) {
				t.Fatalf("QoE differs\nshared: %+v\nplain:  %+v", shared.QoE, plain.QoE)
			}
			if shared.Packets != plain.Packets || shared.Downloaded != plain.Downloaded {
				t.Fatalf("packets %d/%d, downloaded %d/%d", shared.Packets, plain.Packets, shared.Downloaded, plain.Downloaded)
			}
			if plain.Packets == 0 {
				t.Fatal("session captured nothing")
			}
		})
	}
}

package scenario

// The live/replay equivalence suite. Sessions have one capture path:
// the online analyzer at the tap, with segment pooling always on. A
// trace.Trace recording of a run — replayed through a fresh analyzer,
// or exported through a PcapSink and streamed back — must reproduce
// the live Result bit for bit, across every player kind, both scenario
// shapes and a pcap round trip, and attaching it must not change the
// run.

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

// runOne expands the spec to its single session config and runs it
// with capture attached (nil for none).
func runOne(t *testing.T, sp Spec, capture trace.Sink) *session.Result {
	t.Helper()
	cfgs := sp.Configs() // fresh player instance per call
	if len(cfgs) != 1 {
		t.Fatalf("expected one config, got %d", len(cfgs))
	}
	cfg := cfgs[0]
	cfg.Capture = capture
	return session.Run(cfg)
}

// runPcap runs the spec's single session with a PcapSink attached and
// returns the result and the pcap bytes.
func runPcap(t *testing.T, sp Spec) (*session.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	ps, err := trace.NewPcapSink(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := runOne(t, sp, ps)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// replay analyzes a recording with a fresh analyzer.
func replay(tr *trace.Trace, cfg analysis.Config) *analysis.Result {
	st := analysis.NewStreaming(cfg)
	tr.Replay(st)
	return st.Result()
}

// recordShared wires the spec's shared shape the way RunShared does,
// with a trace.Trace recording attached to every client, and runs it.
func recordShared(sp Spec) (*session.Shared, []*session.Result, []*trace.Trace) {
	s := sp.withDefaults()
	sh := session.NewShared(session.Config{
		Service: s.Service(), Network: s.Profile, Duration: s.Duration, Seed: s.Seed,
		ServerTCP: s.ServerTCP, DownDynamics: s.Down, UpDynamics: s.Up,
	})
	var recs []*trace.Trace
	for i, at := range s.Arrival.Times(s.Sessions, sh.Rand()) {
		rec := &trace.Trace{}
		recs = append(recs, rec)
		sh.Add(session.Config{Video: s.video(i), Player: s.Player.New(), StartAt: at, SeriesBin: s.SeriesBin, Capture: rec})
	}
	return sh, sh.Run(), recs
}

// TestStreamingMatchesBufferedAllPlayers runs every player kind twice
// — once with a trace.Trace recording attached, once without — and
// demands three-way equality: the live analysis of the recorded run,
// the replay of its recording, and the run without one.
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
			rec := &trace.Trace{}
			recorded := runOne(t, sp, rec)
			if len(rec.Records) == 0 || len(rec.Records) != recorded.Packets {
				t.Fatalf("recording holds %d packets, the session captured %d", len(rec.Records), recorded.Packets)
			}
			if got := replay(rec, recorded.Config.AnalysisConfig()); !reflect.DeepEqual(recorded.Analysis, got) {
				t.Fatalf("live analysis != replay of the recording\nlive:   %+v\nreplay: %+v", recorded.Analysis, got)
			}
			plain := runOne(t, sp, nil)
			if !reflect.DeepEqual(recorded.Analysis, plain.Analysis) {
				t.Fatalf("attaching a recording changed the run\nrecorded: %+v\nplain:    %+v", recorded.Analysis, plain.Analysis)
			}
			if recorded.Downloaded != plain.Downloaded || recorded.Packets != plain.Packets {
				t.Fatalf("session accounting diverged: downloaded %d/%d, packets %d/%d",
					recorded.Downloaded, plain.Downloaded, recorded.Packets, plain.Packets)
			}
		})
	}
}

// TestStreamingMatchesBufferedShared covers the shared-bottleneck
// shape: a session.Shared run with a recording per client must agree
// with RunShared client by client, and each recording must replay to
// its client's live analysis.
func TestStreamingMatchesBufferedShared(t *testing.T) {
	sp := Spec{
		Player:   IEHtml5,
		Sessions: 3,
		Arrival:  Arrival{Kind: Staggered, Window: 15 * time.Second},
		Duration: 45 * time.Second,
		Seed:     9,
	}
	sh, recorded, recs := recordShared(sp)
	plain := RunShared(sp)
	if len(recorded) != len(plain.Outcomes) {
		t.Fatalf("%d recorded clients, RunShared ran %d", len(recorded), len(plain.Outcomes))
	}
	for i, ro := range recorded {
		po := plain.Outcomes[i]
		if got := replay(recs[i], ro.Config.AnalysisConfig()); !reflect.DeepEqual(ro.Analysis, got) {
			t.Fatalf("client %d: live shared analysis != replay of its recording", i)
		}
		if !reflect.DeepEqual(ro.Analysis, po.Analysis) {
			t.Fatalf("client %d: recorded shared run diverged from RunShared", i)
		}
		if ro.Config.StartAt != po.Config.StartAt || ro.Downloaded != po.Downloaded || ro.Packets != po.Packets {
			t.Fatalf("client %d: start %v/%v, downloaded %d/%d, packets %d/%d", i,
				ro.Config.StartAt, po.Config.StartAt, ro.Downloaded, po.Downloaded, ro.Packets, po.Packets)
		}
	}
	if down := sh.Path.Down; down.Sent+down.Dropped != plain.Offered || down.Dropped != plain.Dropped {
		t.Fatalf("bottleneck accounting diverged: offered %d/%d dropped %d/%d",
			down.Sent+down.Dropped, plain.Offered, down.Dropped, plain.Dropped)
	}
}

// TestStreamingMatchesBufferedPcapRoundTrip exports a capture through a
// PcapSink and classifies the file twice — materialized (StreamPcap
// into a Trace, then replayed) and streamed (StreamPcap into the online
// analyzer) — expecting identical Results and the live strategy.
func TestStreamingMatchesBufferedPcapRoundTrip(t *testing.T) {
	sp := Spec{
		Player:   Flash,
		Sessions: 1,
		Duration: 45 * time.Second,
		Seed:     4,
	}
	r, pcap := runPcap(t, sp)
	cfg := analysis.Config{} // offline: no out-of-band metadata
	tr := &trace.Trace{}
	if err := trace.StreamPcap(bytes.NewReader(pcap), session.ClientAddr, tr); err != nil {
		t.Fatal(err)
	}
	materialized := replay(tr, cfg)

	st := analysis.NewStreaming(cfg)
	if err := trace.StreamPcap(bytes.NewReader(pcap), session.ClientAddr, st); err != nil {
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
	r, pcap := runPcap(t, sp)
	st := analysis.NewStreaming(analysis.Config{})
	if err := trace.StreamPcap(bytes.NewReader(pcap), session.ClientAddr, st); err != nil {
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

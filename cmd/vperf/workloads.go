package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/session"
)

// setupHorizon replaces a workload's horizon in the zero-traffic reps:
// the same inputs, cut short before any data packet is delivered, so
// such a rep times world construction, resets, folds and the codec.
const setupHorizon = time.Millisecond

// scale selects the input size: full for measurement, tiny for tests.
type scale int

const (
	full scale = iota
	tiny
)

func (s scale) String() string {
	if s == tiny {
		return "tiny"
	}
	return "full"
}

// A workload turns a seed into a job. Why each one exists is in
// README.md; the names are the ones BENCHMARK.json lists.
type workload struct {
	name string
	new  func(seed int64, sz scale) job
}

var workloads = []workload{
	{"fleet-onoff", newFleetOnOff},
	{"sweep-table1", newSweepTable1},
	{"fleet-strain", newFleetStrain},
	{"fleet-crowd", newFleetCrowd},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A job holds the inputs generated from the seed. run executes one rep
// (the timed part); the returned output is checked and hashed after the
// rep's timer stops.
type job interface {
	run(o runner.Options, setup bool, sp *spanLog, parent int) (output, error)
}

type output interface {
	check(setup bool) (counts, string, error)
}

// counts are the deterministic work counts of one rep. A change that
// only makes the program faster must not move them.
type counts struct {
	pkts        int64 // core packets offered (fleets) or captured packets (sweep)
	drops       int64 // queue and AQM drops over every tier (fleets)
	retrans     int64 // retransmitted data segments seen by the analyzer (sweep)
	cells       int64 // fleet cells simulated
	sessions    int64 // isolated sessions run
	streamBytes int64 // cell-record codec stream (fleet-crowd)
}

func mustMix(s string) []scenario.MixEntry {
	m, err := scenario.ParseMix(s)
	if err != nil {
		panic(err)
	}
	return m
}

type fleetJob struct {
	fleet scenario.Fleet
	// codec routes the run through WriteFleetCells and
	// MergeFleetCellStreams, the path vfleet -distributed takes.
	codec bool
}

func newFleetOnOff(seed int64, sz scale) job {
	f := scenario.Fleet{
		Mix:      mustMix("flash:1+firefox:1"),
		Clients:  256,
		Duration: 30 * time.Second,
		Arrival:  scenario.Arrival{Kind: scenario.Staggered, Window: 10 * time.Second},
		Seed:     seed,
	}
	if sz == tiny {
		f.Clients, f.Duration, f.Arrival.Window = 64, 5*time.Second, 2*time.Second
	}
	return fleetJob{fleet: f}
}

func newFleetStrain(seed int64, sz scale) job {
	cc, err := scenario.ParseCCMix("reno:1+cubic:1+bbr:1")
	if err != nil {
		panic(err)
	}
	codel, err := netem.ParseAqm("codel")
	if err != nil {
		panic(err)
	}
	down, err := scenario.ParseDynamics("rate@15s=40Mbps; rate@35s=120Mbps")
	if err != nil {
		panic(err)
	}
	f := scenario.Fleet{
		Mix:      mustMix("silverlight:1+netflix-android:1+abr-rate:1+abr-buffer:1"),
		CCMix:    cc,
		Clients:  256,
		Duration: 60 * time.Second,
		Arrival:  scenario.Arrival{Kind: scenario.Poisson, Window: 10 * time.Second},
		Down:     down,
		Seed:     seed,
	}
	f.Tree.Agg.AQM, f.Tree.Access.AQM = codel, codel
	if sz == tiny {
		f.Clients, f.Arrival.Window = 64, 2*time.Second
		f.Duration, f.Down = 5*time.Second, netem.Dynamics{}.Then(netem.RateStep(2*time.Second, 40*netem.Mbps))
	}
	return fleetJob{fleet: f}
}

func newFleetCrowd(seed int64, sz scale) job {
	f := scenario.Fleet{
		Mix:      mustMix("flash:1+firefox:1"),
		Clients:  4096,
		Duration: time.Second,
		Warmup:   250 * time.Millisecond,
		Arrival:  scenario.Arrival{Kind: scenario.Staggered, Window: 500 * time.Millisecond},
		Seed:     seed,
	}
	if sz == tiny {
		f.Clients = 256
	}
	return fleetJob{fleet: f, codec: true}
}

type fleetOutput struct {
	res         *scenario.FleetResult
	fleet       scenario.Fleet
	streamBytes int64
}

func (j fleetJob) run(o runner.Options, setup bool, sp *spanLog, parent int) (output, error) {
	f := j.fleet
	if setup {
		f.Duration, f.Warmup = setupHorizon, 0
	}
	if !j.codec {
		id := sp.begin("RunFleet", parent)
		res := scenario.RunFleet(o, f)
		sp.end(id)
		return fleetOutput{res: res, fleet: f}, nil
	}
	var buf bytes.Buffer
	id := sp.begin("WriteFleetCells", parent)
	err := scenario.WriteFleetCells(&buf, o, f, 0, f.Cells())
	sp.end(id)
	if err != nil {
		return nil, err
	}
	n := int64(buf.Len())
	id = sp.begin("MergeFleetCellStreams", parent)
	res, err := scenario.MergeFleetCellStreams(f, &buf)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	return fleetOutput{res: res, fleet: f, streamBytes: n}, nil
}

func (out fleetOutput) check(bool) (counts, string, error) {
	r, f := out.res, out.fleet
	c := counts{
		pkts:        int64(r.CoreOffered),
		drops:       int64(r.CoreDropped + r.AggDropped + r.AccessDropped),
		cells:       int64(r.Groups),
		streamBytes: out.streamBytes,
	}
	switch {
	case r.Clients != f.Clients:
		return c, "", fmt.Errorf("result covers %d clients, fleet has %d", r.Clients, f.Clients)
	case r.Groups != f.Cells():
		return c, "", fmt.Errorf("result covers %d cells, fleet has %d", r.Groups, f.Cells())
	case r.ActiveClients+r.StarvedClients != r.Clients:
		return c, "", fmt.Errorf("active %d + starved %d != %d clients", r.ActiveClients, r.StarvedClients, r.Clients)
	case r.CoreDropped > r.CoreOffered:
		return c, "", fmt.Errorf("core drops %d exceed offered %d", r.CoreDropped, r.CoreOffered)
	case r.AggDropped > r.CoreOffered-r.CoreDropped:
		return c, "", fmt.Errorf("aggregation drops %d exceed the %d packets the core forwarded", r.AggDropped, r.CoreOffered-r.CoreDropped)
	case r.AccessDropped > r.CoreOffered-r.CoreDropped-r.AggDropped:
		return c, "", fmt.Errorf("access drops %d exceed the %d packets aggregation forwarded", r.AccessDropped, r.CoreOffered-r.CoreDropped-r.AggDropped)
	}
	data, err := r.MarshalBinary()
	if err != nil {
		return c, "", err
	}
	sum := sha256.Sum256(data)
	return c, hex.EncodeToString(sum[:]), nil
}

// sweepJob is Table 1's methodology at sweep scale: every player kind
// on both paper vantage profiles, several seeds each, one isolated
// 180 s session per combination.
type sweepJob struct {
	specs []scenario.Spec
}

func newSweepTable1(seed int64, sz scale) job {
	kinds, seeds := scenario.PlayerKinds(), 3
	if sz == tiny {
		kinds, seeds = kinds[:2], 1
	}
	rng := rand.New(rand.NewSource(seed))
	var j sweepJob
	for _, k := range kinds {
		for _, p := range []netem.Profile{netem.Research, netem.Residence} {
			for i := 0; i < seeds; i++ {
				j.specs = append(j.specs, scenario.Spec{Profile: p, Player: k, Seed: rng.Int63() | 1})
			}
		}
	}
	return j
}

type sweepOutput []*session.Result

func (j sweepJob) run(o runner.Options, setup bool, sp *spanLog, parent int) (output, error) {
	cfgs := make([]session.Config, len(j.specs))
	for i, s := range j.specs {
		if setup {
			s.Duration = setupHorizon
		}
		cfgs[i] = s.Configs()[0]
	}
	spans := make([]span, len(cfgs))
	res := runner.Map(o, cfgs, func(i int, cfg session.Config) *session.Result {
		start := sp.now()
		r := session.Run(cfg)
		spans[i] = span{Name: "session.Run", Start: start, End: sp.now()}
		return r
	})
	sp.add(parent, spans)
	return sweepOutput(res), nil
}

// sessionRecord is the canonical form of one session's output that the
// sweep fingerprint hashes.
type sessionRecord struct {
	Analysis   any
	QoE        any
	Packets    int
	Downloaded int64
}

func (out sweepOutput) check(setup bool) (counts, string, error) {
	c := counts{sessions: int64(len(out))}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, r := range out {
		c.pkts += int64(r.Packets)
		c.retrans += int64(r.Analysis.Retrans)
		if !setup && r.Packets <= 0 {
			return c, "", fmt.Errorf("session %d captured no packets", i)
		}
		if err := enc.Encode(sessionRecord{r.Analysis, r.QoE, r.Packets, r.Downloaded}); err != nil {
			return c, "", fmt.Errorf("session %d: %w", i, err)
		}
	}
	return c, hex.EncodeToString(h.Sum(nil)), nil
}

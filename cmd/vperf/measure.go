package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/runner"
)

// runConfig describes one run of one workload.
type runConfig struct {
	workload workload
	seed     int64
	// measure is how long the timed reps run. A traced run splits it:
	// the first half untraced, the second half under the CPU profiler.
	measure time.Duration
	minReps int // reps per phase, whatever its duration says
	// setupFor is how long the zero-traffic reps behind setup_s run;
	// they take milliseconds, so a run makes hundreds and reports their
	// median.
	setupFor time.Duration
	traced   bool
	size     scale
}

// sample is one rep as the harness saw it from outside the program.
type sample struct {
	id    int // the rep's span
	wall  time.Duration
	cpu   time.Duration // user+sys of the whole process
	cal   time.Duration // the calibration kernel's time next to the rep
	rss   float64       // peak RSS during the rep, MiB
	alloc uint64        // bytes allocated
	gcs   uint32        // GC cycles completed
}

// recalibrateAfter bounds how stale the calibration behind a rep may be.
const recalibrateAfter = 100 * time.Millisecond

// bench runs reps of one job and checks every output.
type bench struct {
	cfg       runConfig
	job       job
	o         runner.Options
	spans     *spanLog
	runSpan   int
	attempted int
	failed    int
	problems  []string
	counts    counts
	// want holds the fingerprint every rep of a kind (timed or
	// set-up) must reproduce: the pinned one, else the first seen.
	want map[bool]string
	cal  time.Duration
	// calAt is when cal was measured.
	calAt time.Time
	// calCPU is the process CPU time the kernel has used so far.
	calCPU time.Duration
}

func (b *bench) rep(setup bool) sample {
	name := "rep"
	if setup {
		name = "setup-rep"
	} else {
		// Every timed rep starts from a collected heap, as a fresh run
		// of the program would, so that where its GC cycles fall, and so
		// its peak RSS, does not depend on the rep before. Collecting
		// first also keeps the previous rep's GC work out of the
		// calibration below.
		runtime.GC()
	}
	if time.Since(b.calAt) > recalibrateAfter {
		cpu0 := cpuTime()
		b.cal, b.calAt = calibrate(benchWorkers), time.Now()
		b.calCPU += cpuTime() - cpu0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	cpu0 := cpuTime()
	id := b.spans.begin(name, b.runSpan)
	out, err := b.runJob(setup, id)
	wall := b.spans.end(id)
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	runtime.ReadMemStats(&m1)
	s := sample{id: id, wall: wall, cpu: cpu, cal: b.cal, rss: rss, alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC}

	b.attempted++
	if err == nil {
		err = b.check(out, setup)
	}
	if err != nil {
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("%s %d: %v", name, b.attempted, err))
	}
	return s
}

// runJob runs the timed part of a rep, turning a panic into a failed rep.
func (b *bench) runJob(setup bool, id int) (out output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return b.job.run(b.o, setup, b.spans, id)
}

func (b *bench) check(out output, setup bool) error {
	c, sum, err := out.check(setup)
	if err != nil {
		return err
	}
	if want, ok := b.want[setup]; !ok {
		b.want[setup] = sum
	} else if sum != want {
		return fmt.Errorf("fingerprint %s, want %s", sum, want)
	}
	if !setup {
		b.counts = c
	}
	return nil
}

// reps runs reps back to back (a closed loop) until d has passed and
// at least minReps were made.
func (b *bench) reps(setup bool, d time.Duration) []sample {
	var out []sample
	start := time.Now()
	for len(out) < b.cfg.minReps || time.Since(start) < d {
		out = append(out, b.rep(setup))
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU returns the runtime's estimate of GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runWorkload makes one run: a warm-up rep, the timed reps, for a
// traced run the profiled reps and their layer attribution, and the
// zero-traffic reps.
func runWorkload(cfg runConfig) (*workloadReport, *spanLog, error) {
	runtime.GOMAXPROCS(benchWorkers)
	b := &bench{
		cfg:   cfg,
		job:   cfg.workload.new(cfg.seed, cfg.size),
		o:     runner.Options{Workers: benchWorkers},
		spans: newSpanLog(),
		want:  map[bool]string{},
	}
	if cfg.seed == 1 {
		if h, ok := pinnedFingerprints[cfg.size.String()][cfg.workload.name]; ok {
			b.want[false] = h
		}
	}
	b.runSpan = b.spans.begin("run", 0)
	defer b.spans.end(b.runSpan)

	b.rep(false) // warm-up
	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	gc0, total0 := gcCPU()
	reps := b.reps(false, measure)
	gc1, total1 := gcCPU()

	var traced []sample
	var layerSamples map[string]int64
	var profiledCPU time.Duration
	if cfg.traced {
		var err error
		if traced, layerSamples, profiledCPU, err = b.profiled(measure); err != nil {
			return nil, nil, err
		}
	}
	setup := b.reps(true, cfg.setupFor)

	r := &workloadReport{
		Name: cfg.workload.name, Seed: cfg.seed, Scale: cfg.size.String(), Traced: cfg.traced,
		Workers: benchWorkers, Attempted: b.attempted, Failed: b.failed, Problems: b.problems,
		Fingerprint: b.want[false], Metrics: map[string]summary{},
	}
	r.Correct = r.Failed == 0
	b.endToEnd(r, reps, setup)
	b.perLayer(r, reps, traced, setup, layerSamples, profiledCPU, gc1-gc0, total1-total0)
	return r, b.spans, nil
}

// profiled runs timed reps under the CPU profiler and attributes the
// samples to layers. It also returns the CPU time the profile covers:
// the process's, less the calibration kernel's.
func (b *bench) profiled(d time.Duration) ([]sample, map[string]int64, time.Duration, error) {
	f, err := os.CreateTemp("", "vperf-*.pprof")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	cpu0, cal0 := cpuTime(), b.calCPU
	reps := b.reps(false, d)
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0 - (b.calCPU - cal0)
	if err := f.Close(); err != nil {
		return nil, nil, 0, err
	}
	buckets, err := profileLayers(f.Name())
	return reps, buckets, cpu, err
}

// collect applies f to every sample.
func collect(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func hostWall(s sample) float64 { return s.wall.Seconds() }
func hostCPU(s sample) float64  { return s.cpu.Seconds() }

// toRef returns the factor that converts host seconds measured in a
// phase into reference seconds: refCalibration over the phase's median
// calibration. One factor per phase keeps the kernel's own jitter out
// of the spread between reps.
func toRef(phase []sample) float64 {
	return refCalibration.Seconds() / median(collect(phase, func(s sample) float64 { return s.cal.Seconds() }))
}

func scaled(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

func (b *bench) endToEnd(r *workloadReport, reps, setup []sample) {
	walls := scaled(collect(reps, hostWall), toRef(reps))
	pps := make([]float64, len(walls))
	for i, w := range walls {
		pps[i] = float64(b.counts.pkts) / w
	}
	r.add("wall_s", "s", walls)
	r.add("pkts_per_s", "pkt/s", pps)
	r.add("cpu_s", "s", scaled(collect(reps, hostCPU), toRef(reps)))
	r.add("peak_rss_mb", "MB", collect(reps, func(s sample) float64 { return s.rss }))
	r.add("setup_s", "s", scaled(collect(setup, hostWall), toRef(setup)))
}

// samplePeriod is the CPU profiler's default sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

func (b *bench) perLayer(r *workloadReport, reps, traced, setup []sample, layerSamples map[string]int64, profiledCPU time.Duration, gcSec, totalSec float64) {
	c := b.counts
	for _, kv := range []struct {
		name string
		v    int64
	}{
		{"work.pkts", c.pkts}, {"netem.drops", c.drops}, {"tcp.retrans", c.retrans},
		{"scenario.cells", c.cells}, {"session.count", c.sessions},
	} {
		r.add(kv.name, "count", []float64{float64(kv.v)})
	}
	r.add("codec.stream_bytes", "bytes", []float64{float64(c.streamBytes)})
	wall, cpu := r.Metrics["wall_s"].Median, r.Metrics["cpu_s"].Median
	nsPerPkt := 0.0 // no rep passed its checks
	if c.pkts > 0 {
		nsPerPkt = cpu * 1e9 / float64(c.pkts)
	}
	r.add("work.cpu_ns_per_pkt", "ns/pkt", []float64{nsPerPkt})
	r.add("runner.idle_frac", "ratio", []float64{1 - cpu/(wall*benchWorkers)})
	r.add("runtime.alloc_mb", "MB", collect(reps, func(s sample) float64 { return float64(s.alloc) / (1 << 20) }))
	r.add("runtime.gc_cycles", "count", collect(reps, func(s sample) float64 { return float64(s.gcs) }))
	r.add("runtime.gc_cpu_frac", "ratio", []float64{gcSec / totalSec})
	r.add("host.wall_s", "s", collect(reps, hostWall))
	r.add("host.setup_s", "s", collect(setup, hostWall))
	r.add("host.cal_ms", "ms", collect(reps, func(s sample) float64 { return s.cal.Seconds() * 1e3 }))

	inRep := map[int]bool{}
	for _, s := range reps {
		inRep[s.id] = true
	}
	f := toRef(reps)
	spanRef := func(name string) []float64 {
		var out []float64
		for _, sp := range b.spans.spans {
			if inRep[sp.Parent] && sp.Name == name {
				out = append(out, sp.dur().Seconds()*f)
			}
		}
		return out
	}
	merge := spanRef("MergeFleetCellStreams")
	if len(merge) == 0 {
		merge = []float64{0}
	}
	r.add("codec.merge_s", "s", merge)
	sess := spanRef("session.Run")
	sort.Float64s(sess)
	p50, p99 := 0.0, 0.0
	if len(sess) > 0 {
		p50, p99 = percentile(sess, 0.50)*1e3, percentile(sess, 0.99)*1e3
	}
	r.add("session.p50_ms", "ms", []float64{p50})
	r.add("session.p99_ms", "ms", []float64{p99})
	r.SessionSpans = len(sess)

	if !b.cfg.traced {
		return
	}
	var total, listed int64
	for layer, n := range layerSamples {
		total += n
		if isLayer(layer) {
			listed += n
		} else {
			r.Unresolved = append(r.Unresolved, fmt.Sprintf("samples in unlisted package %s (%d)", layer, n))
		}
	}
	perRep := samplePeriod.Seconds() * toRef(traced) / float64(len(traced))
	for _, layer := range layers {
		k := layerSamples[layer]
		r.add(layer+".self_s", "s", []float64{float64(k) * perRep})
		if k > 0 && k < minLayerSamples {
			r.Unresolved = append(r.Unresolved, fmt.Sprintf("%s.self_s (%d samples)", layer, k))
		}
	}
	r.add("profile.samples", "count", []float64{float64(total)})
	r.add("profile.cover_frac", "ratio", []float64{float64(listed) * samplePeriod.Seconds() / profiledCPU.Seconds()})
	r.add("trace.overhead_frac", "ratio", []float64{median(collect(traced, hostWall))*toRef(traced)/wall - 1})
	sort.Strings(r.Unresolved)
}

// minLayerSamples is the sample count below which a layer's self time
// is printed as unresolved.
const minLayerSamples = 30

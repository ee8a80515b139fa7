package main

import (
	"context"
	"encoding/binary"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: a
// fixed workload's wall time wanders by 10-20% over minutes, more when
// neighbours contend for the memory system. So each rep is preceded by
// calibrate, a fixed reference kernel that is not part of the program
// under test, and times are reported in reference seconds: measured
// seconds scaled by refCalibration over the kernel's median time in
// the same phase of the run. A change to the program moves reference
// seconds exactly as it moves measured ones; host drift mostly cancels.
//
// The kernel is a miniature discrete-event loop, because that is what
// the simulator is: a binary heap of timed events that updates records
// scattered over a 16 MB table per worker, on as many goroutines as the
// simulator's workers. The table is mapped outside the Go heap and
// unmapped afterwards so that it never shows in the program's memory
// metrics.

// refCalibration is about calibrate's median time at 2 workers on the
// 2-CPU box the bounds were set on, so reference seconds read close to
// host seconds there.
const refCalibration = 33 * time.Millisecond

const (
	calFlows  = 1 << 18 // records per worker
	calRecord = 64      // bytes per record, one cache line
	calEvents = 4096    // events in flight per worker
	calSteps  = 200000  // events dispatched per worker
)

// The kernel's CPU profile samples carry this label, and attribution
// drops them: the kernel is not a layer of the program.
const calLabelKey, calLabelValue = "vperf", "calibrate"

// calibrate runs the reference kernel on workers goroutines and returns
// its wall time, excluding mapping and first-touching the tables.
func calibrate(workers int) time.Duration {
	tables := make([][]byte, workers)
	for k := range tables {
		t, err := syscall.Mmap(-1, 0, calFlows*calRecord, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			panic("vperf: mapping the calibration table: " + err.Error())
		}
		for i := 0; i < len(t); i += 4096 {
			t[i] = 1
		}
		tables[k] = t
	}
	var d time.Duration
	pprof.Do(context.Background(), pprof.Labels(calLabelKey, calLabelValue), func(context.Context) {
		start := time.Now()
		var wg sync.WaitGroup
		for k := range tables {
			wg.Add(1)
			go func() { // inherits the label
				defer wg.Done()
				calLoop(tables[k], uint64(k+1))
			}()
		}
		wg.Wait()
		d = time.Since(start)
	})
	for _, t := range tables {
		if err := syscall.Munmap(t); err != nil {
			panic("vperf: unmapping the calibration table: " + err.Error())
		}
	}
	return d
}

type calEvent struct {
	at   uint64
	flow uint32
}

func calLoop(table []byte, x uint64) {
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make([]calEvent, 0, calEvents)
	push := func(e calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() calEvent {
		top, n := h[0], len(h)-1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].at < h[c].at {
				c++
			}
			if h[i].at <= h[c].at {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return top
	}
	for i := 0; i < calEvents; i++ {
		push(calEvent{at: rnd() % 1000, flow: uint32(rnd() % calFlows)})
	}
	le := binary.LittleEndian
	for s := 0; s < calSteps; s++ {
		e := pop()
		rec := table[int(e.flow)*calRecord:][:calRecord]
		le.PutUint64(rec[0:], le.Uint64(rec[0:])+1448)
		acked := le.Uint64(rec[8:]) + 1
		le.PutUint64(rec[8:], acked)
		if acked%8 == 0 {
			le.PutUint64(rec[16:], le.Uint64(rec[16:])+1)
		}
		push(calEvent{at: e.at + 1 + rnd()%200, flow: uint32((uint64(e.flow) + rnd()) % calFlows)})
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peakRSSMB reads the peak since this call. Where the kernel does
// not support that, peakRSSMB reads the process's peak instead, which
// is the best left to report, so the error is dropped.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

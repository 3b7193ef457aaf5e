package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/sectopk"
)

// flushReasons are the batch scheduler's flush triggers, as labeled in
// sectopk_batch_flushes_total.
var flushReasons = []string{"idle", "size", "tick", "drain"}

// counters is a snapshot of every cumulative counter a window reads as
// a delta: S1's S2-link traffic, the batch scheduler's counters from the
// telemetry registry, and the process's CPU and allocation totals.
type counters struct {
	traffic    sectopk.Traffic
	batchItems int64
	flushes    map[string]int64
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(dc *sectopk.DataCloud) counters {
	reg := telemetry.Default()
	c := counters{
		traffic:    dc.Traffic(),
		batchItems: reg.Counter("sectopk_batch_items_total").Value(),
		flushes:    map[string]int64{},
	}
	for _, reason := range flushReasons {
		c.flushes[reason] = reg.Counter("sectopk_batch_flushes_total", "reason", reason).Value()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.allocBytes = samples[0].Value.Uint64()
	c.gcCPU = samples[1].Value.Float64()
	c.totalCPU = samples[2].Value.Float64()
	return c
}

func (c counters) flushTotal() int64 {
	var n int64
	for _, v := range c.flushes {
		n += v
	}
	return n
}

// sampleHeap samples the live Go heap (as marked by the latest GC) every
// 10ms until the returned stop function is called; stop waits for the
// sampler to end and returns the samples in MB.
func sampleHeap() (stop func() []float64) {
	done := make(chan struct{})
	var (
		wg  sync.WaitGroup
		out []float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			out = append(out, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-t.C:
			case <-done:
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return out
	}
}

package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// goSnap is a point-in-time reading of the Go runtime and the process's
// CPU clock; the difference of two is what the ops between them cost.
type goSnap struct {
	wall       time.Time
	allocB     uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate of CPU seconds spent in GC
	processCPU float64 // user+system seconds from getrusage
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return goSnap{
		wall:       time.Now(),
		allocB:     s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		processCPU: tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// goCost accumulates runtime deltas over the ops it is told about.
type goCost struct {
	ops      int
	wall     time.Duration
	allocB   uint64
	gcCycles uint64
	gcCPU    float64
	cpu      float64
}

func (c *goCost) add(before, after goSnap, ops int) {
	c.ops += ops
	c.wall += after.wall.Sub(before.wall)
	c.allocB += after.allocB - before.allocB
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcCPU += after.gcCPU - before.gcCPU
	c.cpu += after.processCPU - before.processCPU
}

// metrics renders the go layer's per-layer metrics.
func (c *goCost) metrics(m metricSet) {
	ops := float64(max(c.ops, 1))
	m.set("go.alloc_mb_per_op", float64(c.allocB)/1e6/ops)
	m.set("go.gc_cycles_per_op", float64(c.gcCycles)/ops)
	gcFrac := 0.0
	if c.cpu > 0 {
		gcFrac = c.gcCPU / c.cpu
	}
	m.set("go.gc_cpu_fraction", gcFrac)
	m.set("go.cpu_util", c.cpu/max(c.wall.Seconds(), 1e-9))
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

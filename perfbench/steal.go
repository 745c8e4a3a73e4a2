package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Steal time is CPU time the hypervisor hands to another guest while
// this one has work to run. On a shared VM it comes in windows of a
// minute or more; at 25% steal every op of a 2-CPU workload takes about
// twice as long, whatever the program does. The measured loops
// therefore read the host's steal counter as they go and report the
// end-to-end metrics from uncontended time, running on (up to 1.5
// times the requested time: stretched) until they have the requested
// amount of it. A batch loop reads the counter around each op; the
// serve loop's ops are too short for the counter's 10 ms tick, so it
// cuts its time into slices of sliceLen instead. When a loop ends with
// fewer uncontended ops than its minimum, the limit rises to keep the
// least contended ops (stealLimit). Set-ups are screened one set-up at
// a time. Correctness is checked on every op, contended or not.
const (
	sliceLen = time.Second
	maxSteal = 0.03 // time with more steal than this share of all CPU time is contended
)

// stretched is how long a loop asked for d of uncontended time runs at
// most, clean or not. The cap keeps a run that meets a steal window
// within the benchmark's time budget.
func stretched(d time.Duration) time.Duration { return d * 3 / 2 }

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the host's CPU counters; ok is false where the
// platform has no /proc/stat, and then nothing is ever contended.
func readCPUStat() (s cpuStat, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	return parseCPUStat(string(data))
}

// parseCPUStat sums user, nice, system, idle, iowait, irq, softirq and
// steal; guest time is already counted in user and nice.
func parseCPUStat(data string) (s cpuStat, ok bool) {
	line, _, _ := strings.Cut(data, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s, true
}

// stealShare is the share of all CPU time between two readings that was
// stolen; without both readings it is 0.
func stealShare(a cpuStat, aok bool, b cpuStat, bok bool) float64 {
	if !aok || !bok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealLimit is the steal share up to which a run keeps what it
// measured, given the share of each op (or set-up): maxSteal when at
// least min of them are under it, otherwise the share of the min-th
// least contended, so the run reports from its min least contended ops.
// With fewer than min in all it keeps them all.
func stealLimit(shares []float64, min int) float64 {
	if len(shares) < min {
		return math.Inf(1)
	}
	if min < 1 {
		return maxSteal
	}
	s := slices.Clone(shares)
	slices.Sort(s)
	return max(maxSteal, s[min-1])
}

// reportSteal prints how much of a loop's time it left out and at what
// steal limit.
func reportSteal(kept, total time.Duration, limit float64) {
	note := ""
	if limit > maxSteal {
		note = fmt.Sprintf("; too few ops under %.0f%%, so the least contended are kept", 100*maxSteal)
	}
	fmt.Printf("steal: %.1f s of %.1f s left out as contended (over %.1f%% steal%s)\n", (total - kept).Seconds(), total.Seconds(), 100*min(limit, 1), note)
}

// stealClock cuts a loop's time into slices of sliceLen and records
// each slice's steal share.
type stealClock struct {
	mu     sync.Mutex
	sl     slicing
	clean  time.Duration // time of the closed slices under maxSteal
	last   cpuStat
	lastOK bool
	stop   chan struct{}
	done   chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.last, c.lastOK = readCPUStat()
	c.sl.bounds = []time.Time{time.Now()}
	go c.run()
	return c
}

func (c *stealClock) run() {
	defer close(c.done)
	tick := time.NewTicker(sliceLen)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.cut()
		case <-c.stop:
			c.cut()
			return
		}
	}
}

// cut closes the open slice.
func (c *stealClock) cut() {
	s, ok := readCPUStat()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	share := stealShare(c.last, c.lastOK, s, ok)
	if share <= maxSteal {
		c.clean += now.Sub(c.sl.bounds[len(c.sl.bounds)-1])
	}
	c.sl.steal = append(c.sl.steal, share)
	c.sl.bounds = append(c.sl.bounds, now)
	c.last, c.lastOK = s, ok
}

// enough reports whether a loop that started at start and asked for d
// of uncontended time may stop. The open slice counts as uncontended
// until it is cut.
func (c *stealClock) enough(start time.Time, d time.Duration) bool {
	c.mu.Lock()
	clean := c.clean + time.Since(c.sl.bounds[len(c.sl.bounds)-1])
	c.mu.Unlock()
	return clean >= d || time.Since(start) >= stretched(d)
}

// finish cuts the last slice, stops the clock and returns the slices.
func (c *stealClock) finish() slicing {
	close(c.stop)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sl
}

// slicing is a loop's time cut into slices: slice i runs from bounds[i]
// to bounds[i+1] and had steal share steal[i].
type slicing struct {
	bounds []time.Time
	steal  []float64
}

// index is the slice holding t, or -1 outside the loop.
func (s slicing) index(t time.Time) int {
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i].After(t) }) - 1
	if i >= len(s.steal) {
		return -1
	}
	return i
}

// shareAt is the steal share of the slice holding t (1 outside the
// loop).
func (s slicing) shareAt(t time.Time) float64 {
	if i := s.index(t); i >= 0 {
		return s.steal[i]
	}
	return 1
}

// spanShare is the highest steal share of the slices from t0 to t1.
func (s slicing) spanShare(t0, t1 time.Time) float64 {
	i, j := s.index(t0), s.index(t1)
	if i < 0 || j < 0 {
		return 1
	}
	return slices.Max(s.steal[i : j+1])
}

// times returns the time of the slices at or under limit, and the
// total.
func (s slicing) times(limit float64) (kept, total time.Duration) {
	for i, share := range s.steal {
		d := s.bounds[i+1].Sub(s.bounds[i])
		total += d
		if share <= limit {
			kept += d
		}
	}
	return kept, total
}

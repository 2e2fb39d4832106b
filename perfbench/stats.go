package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule; xs is sorted in place. +Inf entries (failed operations) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reports the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// goCounters snapshots the runtime counters a traced run reports as deltas
// over its measured window.
type goCounters struct {
	gcCPU, totalCPU float64
	numGC           uint32
	allocBytes      uint64
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g := goCounters{numGC: m.NumGC, allocBytes: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	return g
}

// putGo writes the runtime deltas since before into ms.
func putGo(m map[string]float64, before goCounters) {
	after := readGo()
	m["go.gc_cpu_frac"] = frac(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["go.gc_count"] = float64(after.numGC - before.numGC)
}

// tracer accumulates span durations by name. Spans are recorded only by the
// benchmark's own code, around its calls into the program's layers.
type tracer struct {
	acc map[string]time.Duration
}

func newTracer() *tracer { return &tracer{acc: map[string]time.Duration{}} }

// since adds the time elapsed since t0 to span name and returns now, so
// consecutive spans can be chained without a second clock read.
func (t *tracer) since(name string, t0 time.Time) time.Time {
	now := time.Now()
	t.acc[name] += now.Sub(t0)
	return now
}

// seconds reports span name's total in seconds, divided by per.
func (t *tracer) seconds(name string, per int) float64 {
	if per == 0 {
		return 0
	}
	return t.acc[name].Seconds() / float64(per)
}

// deriveSeed maps the workload seed and a stream label to an independent
// seed, so every input draws from its own reproducible stream.
func deriveSeed(seed int64, stream string) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, c := range []byte(stream) {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	h ^= h >> 31
	return int64(h&(1<<62-1)) + 1
}

// budget tells a repeated measurement when to stop: it keeps going while
// another repetition as long as the slowest so far still fits in the
// remaining time, and always allows the first.
type budget struct {
	start   time.Time
	total   time.Duration
	longest time.Duration
	reps    int
}

func newBudget(seconds float64) *budget {
	return &budget{start: time.Now(), total: time.Duration(seconds * float64(time.Second))}
}

func (b *budget) more() bool {
	return b.reps == 0 || time.Since(b.start)+b.longest <= b.total
}

func (b *budget) done(d time.Duration) {
	b.reps++
	if d > b.longest {
		b.longest = d
	}
}

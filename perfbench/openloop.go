package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Open-loop load: requests are issued on a schedule fixed in advance,
// whether or not earlier ones have completed, as independent users would
// send them. Each request is timed from the moment it was due, so a stall
// in the server or in the generator itself shows up as latency on every
// request it delays.

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the start of the phase
	node int32
}

// fixedRateSchedule lays out arrivals at rate per second for dur, evenly
// spaced after a random phase within the first gap, with nodes from pick.
// Even spacing keeps the offered load the same in every stretch of the
// run: with Poisson gaps, how much a burst queues depends on how fast the
// shared machine happens to be just then, which makes latency vary between
// runs far more than the server's speed does.
func fixedRateSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func() int32) []arrival {
	var out []arrival
	gap := time.Duration(float64(time.Second) / rate)
	at := time.Duration(rng.Float64() * float64(gap))
	for at < dur {
		out = append(out, arrival{due: at, node: pick()})
		at += gap
	}
	return out
}

// sent is the outcome of one scheduled request.
type sent struct {
	lat  time.Duration // completion minus due time
	late time.Duration // issue time minus due time (generator lag)
	ok   bool
}

// runOpenLoop issues every arrival at its due time on its own goroutine,
// waits for all of them, and returns their outcomes in schedule order. do
// reports whether request i succeeded.
func runOpenLoop(sched []arrival, do func(i int, a arrival) bool) []sent {
	out := make([]sent, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			ok := do(i, a)
			out[i] = sent{lat: time.Since(due), late: late, ok: ok}
		}(i, a)
	}
	wg.Wait()
	return out
}

// failedLatencyMS is what a failed or shed request contributes to a latency
// percentile: it misses every latency limit, and this value is far beyond
// any limit a user would set for this workload.
const failedLatencyMS = 60_000

// loadSummary is the accounting of one phase of open-loop load.
type loadSummary struct {
	p50, p90 float64 // latency percentiles in ms; failures count as failedLatencyMS
	lateP99  float64 // generator lag percentile in ms
	failed   int
}

func summarize(rs []sent) loadSummary {
	var s loadSummary
	lats := make([]float64, 0, len(rs))
	lates := make([]float64, 0, len(rs))
	for _, r := range rs {
		lates = append(lates, ms(r.late))
		if !r.ok {
			s.failed++
			lats = append(lats, math.Inf(1))
			continue
		}
		lats = append(lats, ms(r.lat))
	}
	s.p50 = math.Min(quantile(lats, 0.5), failedLatencyMS)
	s.p90 = math.Min(quantile(lats, 0.9), failedLatencyMS)
	s.lateP99 = quantile(lates, 0.99)
	return s
}

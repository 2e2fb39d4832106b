package main

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestFixedRateScheduleIsSeededAndOnRate(t *testing.T) {
	pick := func(r *rand.Rand) func() int32 { return func() int32 { return int32(r.Intn(100)) } }
	draw := func(seed int64) []arrival {
		r := rand.New(rand.NewSource(seed))
		return fixedRateSchedule(r, 200, 10*time.Second, pick(r))
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n != 2000 {
		t.Fatalf("200 req/s for 10s scheduled %d arrivals, want 2000", n)
	}
	if a[0].due < 0 || a[0].due >= 5*time.Millisecond {
		t.Fatalf("first arrival due at %v, want within the first 5ms gap", a[0].due)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due-a[i-1].due != 5*time.Millisecond || a[i].due >= 10*time.Second {
			t.Fatalf("arrival %d due at %v after %v, want 5ms apart within 10s", i, a[i].due, a[i-1].due)
		}
	}
}

func TestSummarizeCountsFailuresAsMissingEveryLimit(t *testing.T) {
	var rs []sent
	for i := 0; i < 88; i++ {
		rs = append(rs, sent{lat: time.Duration(i+1) * time.Millisecond, ok: true})
	}
	for i := 0; i < 12; i++ {
		rs = append(rs, sent{lat: time.Millisecond, ok: false})
	}
	s := summarize(rs)
	if s.failed != 12 {
		t.Fatalf("failed = %d, want 12", s.failed)
	}
	if s.p90 != failedLatencyMS {
		t.Fatalf("p90 = %v ms with 12%% of requests failed, want the failure latency %v", s.p90, failedLatencyMS)
	}
	if s.p50 != 50 {
		t.Fatalf("p50 = %v ms, want 50", s.p50)
	}
}

func TestOpenLoopTimesRequestsFromTheirDueTime(t *testing.T) {
	// Five requests due at once against a server that handles one at a time
	// for 20ms each: the last one waits for the other four, and its latency
	// must include that wait although it was issued on time.
	sched := make([]arrival, 5)
	var mu sync.Mutex
	out := runOpenLoop(sched, func(int, arrival) bool {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return true
	})
	var slowest time.Duration
	for _, s := range out {
		if !s.ok {
			t.Fatal("a request reported failure")
		}
		slowest = max(slowest, s.lat)
		if s.late > 15*time.Millisecond {
			t.Fatalf("the generator ran %v late issuing a request due immediately", s.late)
		}
	}
	if slowest < 100*time.Millisecond {
		t.Fatalf("slowest latency %v, want at least the 100ms of queued service", slowest)
	}
}

func TestOpenLoopDoesNotWaitForReplies(t *testing.T) {
	// An open loop keeps issuing on schedule while earlier requests hang.
	sched := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	release := make(chan struct{})
	var issued sync.WaitGroup
	issued.Add(len(sched))
	go func() {
		issued.Wait()
		close(release)
	}()
	out := runOpenLoop(sched, func(int, arrival) bool {
		issued.Done()
		<-release
		return true
	})
	for i, s := range out {
		if s.late > 15*time.Millisecond {
			t.Fatalf("request %d was issued %v late while earlier ones were outstanding", i, s.late)
		}
	}
}

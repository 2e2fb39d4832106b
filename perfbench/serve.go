package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"torchgt"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/sample"
	"torchgt/internal/tensor"
)

// Open-loop serving: a registry serving GPH-Slim over arxiv-sim (N=4096) on
// the optimized backend, driven in-process through Registry.Handler() at
// two fixed rates with Zipf-popular nodes. The run alternates stretches of
// lo and hi load. The ego cache holds fewer contexts than the load touches.
// In the middle of the run, inside a hi stretch, a second snapshot is
// published and swapped in; /metrics is scraped once a second.
const (
	serveN        = 4096
	serveCacheCap = 512
	serveModel    = "m"
	loRate        = 50.0  // req/s: each replica is busy about a quarter of the time
	hiRate        = 100.0 // req/s: each replica is busy about half of the time
	zipfS         = 1.1   // node of popularity rank r is drawn ∝ (zipfV+r)^-zipfS
	zipfV         = 32
	serveMaxBatch = 16
	probeEvery    = 8  // every probeEvery-th request is re-checked against Registry.Predict
	lossNodes     = 64 // nodes whose served predictions give final_loss
	warmup        = 2 * time.Second
	segment       = 2500 * time.Millisecond // length of one lo or hi stretch of the load
	// activateReps is how many opt-backend activations setup_s takes the
	// median of; all but the first run in child processes.
	activateReps = 5
)

type serveSetup struct {
	ds    *torchgt.NodeDataset
	cfg   model.Config
	reg   *torchgt.ServeRegistry
	next  []byte // the snapshot published mid-run
	order []int32
}

// setupServe builds the registry with the first snapshot active and the
// second ready to publish; it also reports the dataset's generation time.
func setupServe(seed int64, dir string) (s *serveSetup, open time.Duration, err error) {
	t0 := time.Now()
	ds, err := torchgt.LoadNodeDataset("arxiv-sim", serveN, deriveSeed(seed, "dataset"))
	if err != nil {
		return nil, 0, err
	}
	open = time.Since(t0)
	s = &serveSetup{ds: ds, cfg: model.GraphormerSlim(ds.X.Cols, ds.NumClasses, deriveSeed(seed, "model"))}
	first, err := torchgt.Freeze(model.NewGraphTransformer(s.cfg))
	if err != nil {
		return nil, 0, err
	}
	nextCfg := s.cfg
	nextCfg.Seed = deriveSeed(seed, "model-v2")
	next, err := torchgt.Freeze(model.NewGraphTransformer(nextCfg))
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, "next.snap")
	if err := torchgt.SaveSnapshot(path, next); err != nil {
		return nil, 0, err
	}
	if s.next, err = os.ReadFile(path); err != nil {
		return nil, 0, err
	}
	s.reg = torchgt.NewServeRegistry(serveCacheCap)
	// Two replicas, each running its heads and kernels on one thread: the
	// parallelism is across requests, as in a multi-worker inference
	// server with one thread per worker.
	opts := torchgt.ServeOptions{Workers: 2, MaxBatch: serveMaxBatch, Exec: &model.ExecOptions{Workers: 1, PoolEnabled: true}}
	if err := s.reg.Register(serveModel, ds, torchgt.ServeModelOptions{Serve: opts}); err != nil {
		return nil, 0, err
	}
	if _, err := s.reg.Publish(serveModel, first); err != nil {
		return nil, 0, err
	}
	if _, err := s.reg.Swap(serveModel, 0); err != nil {
		return nil, 0, err
	}
	// Node popularity: a seeded permutation, so the popular nodes differ
	// per seed.
	for _, v := range rand.New(rand.NewSource(deriveSeed(seed, "popularity"))).Perm(serveN) {
		s.order = append(s.order, int32(v))
	}
	return s, open, nil
}

// predictReply is the /predict response body.
type predictReply struct {
	Node       int32     `json:"node"`
	Class      int32     `json:"class"`
	Probs      []float32 `json:"probs"`
	Generation uint64    `json:"generation"`
	BatchSize  int       `json:"batch_size"`
	QueuedUS   int64     `json:"queued_us"`
	InferUS    int64     `json:"infer_us"`
}

// served is one request's record.
type served struct {
	reply   predictReply
	handler time.Duration // time inside ServeHTTP
	code    int
}

// serveRun drives one run's load and keeps what the checks and metrics
// need.
type serveRun struct {
	s *serveSetup
	h http.Handler
	o *outcome

	mu        sync.Mutex
	probes    int // probe responses compared with a direct Predict
	probeSkip int // probes whose direct Predict landed in another generation
}

func (r *serveRun) call(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	t := time.Now()
	r.h.ServeHTTP(rec, req)
	return rec, time.Since(t)
}

// predict sends one /predict request; every probeEvery-th one is compared
// with a direct Registry.Predict in the same generation.
func (r *serveRun) predict(i int, node int32, rec *served) bool {
	resp, d := r.call(http.MethodGet, fmt.Sprintf("/predict?model=%s&node=%d", serveModel, node), nil)
	rec.handler, rec.code = d, resp.Code
	if resp.Code != http.StatusOK {
		return false
	}
	if err := json.Unmarshal(resp.Body.Bytes(), &rec.reply); err != nil {
		r.fail("request %d: undecodable reply: %v", i, err)
		return false
	}
	if rec.reply.Node != node || len(rec.reply.Probs) != r.s.ds.NumClasses {
		r.fail("request %d: reply for node %d with %d probs, want node %d", i, rec.reply.Node, len(rec.reply.Probs), node)
		return false
	}
	if i%probeEvery != 0 {
		return true
	}
	direct := r.s.reg.Predict(context.Background(), serveModel, node)
	r.mu.Lock()
	defer r.mu.Unlock()
	if direct.Err != nil || direct.Gen != rec.reply.Generation {
		r.probeSkip++
		return true
	}
	r.probes++
	same := direct.Class == rec.reply.Class && len(direct.Probs) == len(rec.reply.Probs)
	for j := 0; same && j < len(direct.Probs); j++ {
		same = math.Float32bits(direct.Probs[j]) == math.Float32bits(rec.reply.Probs[j])
	}
	if !same {
		r.o.check(false, "request %d: /predict reply for node %d differs from Registry.Predict in generation %d", i, node, direct.Gen)
		return false
	}
	return true
}

func (r *serveRun) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.check(false, format, args...)
}

// phase runs one open-loop schedule and returns the per-request outcomes
// and records. midway, when set, runs on its own goroutine at offset midAt.
func (r *serveRun) phase(sched []arrival, midAt time.Duration, midway func()) ([]sent, []served) {
	recs := make([]served, len(sched))
	var wg sync.WaitGroup
	if midway != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(midAt)
			midway()
		}()
	}
	out := runOpenLoop(sched, func(i int, a arrival) bool { return r.predict(i, a.node, &recs[i]) })
	wg.Wait()
	return out, recs
}

// interleave draws rounds of one lo segment followed by one hi segment,
// each seg long, and reports for every arrival whether it is a hi one.
// Alternating the rates lets both sample the host over the whole run, so
// a slow stretch of a shared machine lands on lo and hi alike instead of
// on whichever rate ran then.
func interleave(rng *rand.Rand, pick func() int32, seg time.Duration, rounds int) (sched []arrival, hi []bool) {
	for k := 0; k < rounds; k++ {
		for j, rate := range []float64{loRate, hiRate} {
			off := time.Duration(2*k+j) * seg
			for _, a := range fixedRateSchedule(rng, rate, seg, pick) {
				a.due += off
				sched = append(sched, a)
				hi = append(hi, j == 1)
			}
		}
	}
	return sched, hi
}

// scrapeEvery scrapes /metrics once a second until stop is closed and
// returns the scrape times in ms.
func (r *serveRun) scrapeEvery(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			resp, d := r.call(http.MethodGet, "/metrics", nil)
			if resp.Code != http.StatusOK || resp.Body.Len() == 0 {
				r.fail("/metrics scrape returned %d with %d bytes", resp.Code, resp.Body.Len())
			}
			out = append(out, ms(d))
		}
	}
}

func runServe(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	t0 := time.Now()
	if _, err := torchgt.SetBackend("opt"); err != nil {
		return nil, err
	}
	activations := []float64{time.Since(t0).Seconds()}
	// Kernels run single-threaded (see setupServe). Splitting a 32-row
	// matmul across both CPUs wakes the other CPU dozens of times per
	// request, and on a virtual machine each wake-up waits for the host,
	// which made latency vary by half between runs.
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	o.backend = torchgt.ActiveBackend().Name()
	for i := 1; i < activateReps; i++ {
		a, err := activateInChild("opt")
		if err != nil {
			return nil, err
		}
		activations = append(activations, a)
	}

	var s *serveSetup
	var setups, opens []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.reg.Close()
		}
		t := time.Now()
		var open time.Duration
		var err error
		if s, open, err = setupServe(rc.seed, rc.workDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		opens = append(opens, open.Seconds())
	}
	defer s.reg.Close()
	// setup_s counts the backend's one-time autotune and the set-up, each
	// by its median.
	o.metrics["setup_s"] = median(activations) + median(setups)

	rng := rand.New(rand.NewSource(deriveSeed(rc.seed, "arrivals")))
	zipf := rand.NewZipf(rand.New(rand.NewSource(deriveSeed(rc.seed, "zipf"))), zipfS, zipfV, serveN-1)
	pick := func() int32 { return s.order[zipf.Uint64()] }
	rounds := int(math.Max(1, math.Round(rc.seconds/(2*segment.Seconds()))))
	seg := time.Duration(rc.seconds / float64(2*rounds) * float64(time.Second))
	warm := fixedRateSchedule(rng, loRate, warmup, pick)
	var loBase []arrival
	if rc.trace {
		// A traced run first runs as much lo load untraced, as the
		// baseline for the tracing overhead.
		loBase = fixedRateSchedule(rng, loRate, time.Duration(rounds)*seg, pick)
	}
	sched, isHi := interleave(rng, pick, seg, rounds)
	// The publish and swap land in the middle of the middle round's hi
	// segment.
	swapDue := time.Duration(2*(rounds/2)+1)*seg + seg/2

	// Garbage left by the repeated set-ups is collected before the load
	// starts rather than during it.
	runtime.GC()
	r := &serveRun{s: s, h: s.reg.Handler(), o: o}
	r.phase(warm, 0, nil)
	var baseOut []sent
	if loBase != nil {
		baseOut, _ = r.phase(loBase, 0, nil)
	}

	before := readGo()
	cache0 := s.reg.Cache().Stats()
	reg0 := s.reg.Stats().Models[0]
	stop := make(chan struct{})
	scrapes := make(chan []float64, 1)
	go func() { scrapes <- r.scrapeEvery(stop) }()

	var swapAt time.Time
	var newGen uint64
	var publishS, swapS float64
	start := time.Now()
	out, recs := r.phase(sched, swapDue, func() {
		resp, d := r.call(http.MethodPost, "/publish?model="+serveModel, s.next)
		publishS = d.Seconds()
		if resp.Code != http.StatusOK {
			r.fail("/publish returned %d: %s", resp.Code, resp.Body.String())
			return
		}
		resp, d = r.call(http.MethodPost, "/swap?model="+serveModel, nil)
		swapS = d.Seconds()
		var sw struct {
			Generation uint64 `json:"generation"`
		}
		if resp.Code != http.StatusOK || json.Unmarshal(resp.Body.Bytes(), &sw) != nil {
			r.fail("/swap returned %d: %s", resp.Code, resp.Body.String())
			return
		}
		newGen, swapAt = sw.Generation, time.Now()
	})
	wall := time.Since(start)
	close(stop)
	scrapeMS := <-scrapes

	// Responses to requests due after the swap returned must come from the
	// new generation.
	o.check(newGen > 0, "the mid-run swap did not complete")
	for i, a := range sched {
		if newGen > 0 && start.Add(a.due).After(swapAt) && out[i].ok && recs[i].reply.Generation != newGen {
			o.check(false, "request %d, due after the swap, was served by generation %d, want %d", i, recs[i].reply.Generation, newGen)
			break
		}
	}
	o.check(r.probes >= len(sched)/probeEvery/2, "only %d probes were compared with Registry.Predict (%d skipped)", r.probes, r.probeSkip)

	var loOut, hiOut []sent
	for i, h := range isHi {
		if h {
			hiOut = append(hiOut, out[i])
		} else {
			loOut = append(loOut, out[i])
		}
	}
	loSum, hiSum := summarize(loOut), summarize(hiOut)
	o.attempted = len(out)
	o.failed = loSum.failed + hiSum.failed
	m := o.metrics
	if !rc.trace {
		loss, err := servedLoss(s, rc.seed)
		if err != nil {
			return nil, err
		}
		m["samples_per_s"] = float64(o.attempted-o.failed) / wall.Seconds()
		m["final_loss"] = loss
		m["peak_rss_mb"] = peakRSSMB()
		m["ok_frac"] = 1 - frac(float64(o.failed), float64(o.attempted))
		m["error_frac"] = 1 - m["ok_frac"]
		m["lat_p50_ms"], m["lat_p90_ms"] = loSum.p50, loSum.p90
		m["hi_lat_p50_ms"], m["hi_lat_p90_ms"] = hiSum.p50, hiSum.p90
		return o, nil
	}
	putGo(m, before)
	cache1 := s.reg.Cache().Stats()
	reg1 := s.reg.Stats().Models[0]
	var queue, infer, httpMS, inferS []float64
	var batches, full float64
	for _, rec := range recs {
		if rec.code != http.StatusOK || rec.reply.BatchSize == 0 {
			continue
		}
		q, f := float64(rec.reply.QueuedUS)/1e3, float64(rec.reply.InferUS)/1e3
		queue, infer = append(queue, q), append(infer, f)
		inferS = append(inferS, f/1e3)
		httpMS = append(httpMS, ms(rec.handler)-q-f)
		// A batch of b requests contributes b replies of 1/b each.
		batches += 1 / float64(rec.reply.BatchSize)
		if rec.reply.BatchSize == serveMaxBatch {
			full += 1 / float64(rec.reply.BatchSize)
		}
	}
	m["serve.queue_ms_p50"], m["serve.queue_ms_p99"] = quantile(queue, 0.5), quantile(queue, 0.99)
	m["serve.infer_ms_p50"], m["serve.infer_ms_p99"] = quantile(infer, 0.5), quantile(infer, 0.99)
	m["serve.http_ms_p50"] = quantile(httpMS, 0.5)
	m["serve.avg_batch"] = frac(float64(len(queue)), batches)
	m["serve.flush_full_frac"] = frac(full, batches)
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	m["serve.egocache_hit_frac"] = frac(float64(hits), float64(hits+misses))
	admitted, shed := reg1.Admitted-reg0.Admitted, reg1.Shed-reg0.Shed
	m["serve.shed_frac"] = frac(float64(shed), float64(admitted+shed))
	m["serve.publish_s"], m["serve.swap_s"] = publishS, swapS
	m["serve.metrics_scrape_ms"] = median(scrapeMS)
	m["loadgen.late_p99_ms"] = math.Max(loSum.lateP99, hiSum.lateP99)
	m["model.fwd_s"] = median(inferS)
	m["data.open_s"] = median(opens)
	m["tensor.matmul_gflops"] = matmulGFLOPS(16*32, s.cfg.Hidden)
	att, err := serveAttentionReplay(s)
	if err != nil {
		return nil, err
	}
	m["attention.sparse.fwd_s"] = att
	baseSum := summarize(baseOut)
	m["trace.overhead_lat_p50_ms"] = loSum.p50 - baseSum.p50
	// Both are served per second of scheduled lo load.
	loS := (time.Duration(rounds) * seg).Seconds()
	m["trace.overhead_samples_per_s"] = float64(len(loOut)-loSum.failed)/loS -
		float64(len(baseOut)-baseSum.failed)/loS
	return o, nil
}

// activateInChild times activating backend in a fresh process of this
// binary. Activation autotunes once per process, so a second timing needs a
// second process.
func activateInChild(backend string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "-activate", backend).Output()
	if err != nil {
		return 0, fmt.Errorf("activating %s in a child process: %w", backend, err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// servedLoss is the mean cross-entropy of the served class distributions
// over a fixed, seed-derived set of nodes, read with direct Predict calls
// after the load.
func servedLoss(s *serveSetup, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "loss-nodes")))
	var sum float64
	for i := 0; i < lossNodes; i++ {
		node := int32(rng.Intn(serveN))
		resp := s.reg.Predict(context.Background(), serveModel, node)
		if resp.Err != nil {
			return 0, resp.Err
		}
		sum -= math.Log(math.Max(float64(resp.Probs[s.ds.Y[node]]), 1e-30))
	}
	return sum / lossNodes, nil
}

// serveAttentionReplay times the sparse attention kernels the serving
// forward runs, on 32-row ego contexts of the served graph through the
// mirrored forward of the snapshot's model; it reports seconds per context.
func serveAttentionReplay(s *serveSetup) (float64, error) {
	snap, err := torchgt.Freeze(model.NewGraphTransformer(s.cfg))
	if err != nil {
		return 0, err
	}
	g, err := snap.Materialize()
	if err != nil {
		return 0, err
	}
	tr := newTracer()
	m, err := newMirror(g, tr, nil)
	if err != nil {
		return 0, err
	}
	smp := sample.New(graph.SourceOf(s.ds), sample.Config{Hops: 2, MaxSize: 32, Seed: 1})
	c := smp.NewContext()
	const n = 64
	for i := 0; i < n; i++ {
		smp.Sample(c, s.order[i], uint64(i))
		egoForward(m, c, false)
	}
	return tr.seconds("attention.sparse.fwd", n), nil
}

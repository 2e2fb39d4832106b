package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"torchgt"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sample"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
	"torchgt/internal/train"
)

// Out-of-core ego training: products-sim (16384 nodes) resplit to about 330
// training targets and 160 test targets, sharded during set-up and read
// back through a shard:// view whose block cache holds a fifth of the data.
// One trial is one epoch of 32-target optimiser steps over ≤32-row sampled
// ego contexts with two sampler workers, plus the trainer's test-sample
// evaluations.
const (
	egoSplit   = "resplit=0.02:0.97"
	egoShards  = 4
	egoView    = "?cache=1MiB&block=4KiB"
	egoEpochs  = 1
	egoBatch   = 32
	egoCtx     = 32
	egoWorkers = 2
	egoLR      = 1e-3
)

type egoSetup struct {
	dir       string // shard directory
	cfg       model.Config
	trainSeed int64
	targets   int
}

func (e *egoSetup) open() (torchgt.NodeSource, error) {
	return torchgt.OpenNodeSource("shard://" + e.dir + egoView)
}

func (e *egoSetup) options() torchgt.TrainOptions {
	return torchgt.TrainOptions{Epochs: egoEpochs, LR: egoLR, Seed: e.trainSeed, SeqLen: egoCtx, BatchSize: egoBatch}
}

// setupEgo generates the dataset, writes its shards under dir and opens the
// view once; it reports the time spent writing shards and opening the view.
func setupEgo(seed int64, dir string) (e *egoSetup, write, open time.Duration, err error) {
	d, err := torchgt.OpenDataset(fmt.Sprintf("synth://products-sim?%s&seed=%d", egoSplit, deriveSeed(seed, "dataset")))
	if err != nil {
		return nil, 0, 0, err
	}
	ds := d.Node
	t0 := time.Now()
	if _, err := torchgt.ShardNodeDataset(dir, ds, egoShards); err != nil {
		return nil, 0, 0, err
	}
	write = time.Since(t0)
	e = &egoSetup{dir: dir, cfg: model.GraphormerSlim(ds.X.Cols, ds.NumClasses, deriveSeed(seed, "model")), trainSeed: deriveSeed(seed, "train")}
	for _, m := range ds.TrainMask {
		if m {
			e.targets++
		}
	}
	t1 := time.Now()
	if _, err := e.open(); err != nil {
		return nil, 0, 0, err
	}
	return e, write, time.Since(t1), nil
}

func runEgo(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, backend: torchgt.ActiveBackend().Name()}
	var e *egoSetup
	var setups, writes, opens []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var w, op time.Duration
		var err error
		if e, w, op, err = setupEgo(rc.seed, filepath.Join(rc.workDir, fmt.Sprintf("shards-%d", r))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		writes = append(writes, w.Seconds())
		opens = append(opens, op.Seconds())
	}
	if rc.trace {
		o.metrics["shard.write_s"] = median(writes)
		o.metrics["data.open_s"] = median(opens)
		return traceEgo(o, e)
	}
	var trials []trial
	for b := newBudget(rc.seconds); b.more(); {
		src, err := e.open()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := torchgt.TrainNodeEgoSource(e.cfg, src, e.options(), egoWorkers)
		t := trial{wall: time.Since(t0)}
		o.attempted += egoEpochs
		if err != nil {
			o.failed += egoEpochs
			o.check(false, "ego-ooc: %v", err)
			break
		}
		for _, p := range res.Curve {
			t.losses = append(t.losses, p.Loss)
			t.epochs = append(t.epochs, p.EpochTime)
		}
		st, ok := torchgt.DatasetIOStatsOf(src)
		o.check(ok && st.Misses > 0, "ego-ooc: the trainer did not read through the shard view (io stats %+v)", st)
		b.done(t.wall)
		trials = append(trials, t)
	}
	if len(trials) > 0 {
		checkTrials(o, trials, "ego-ooc")
		trainingMetrics(o, trials, e.targets, setups, func(int) bool { return false })
	}
	return o, nil
}

// timedSource wraps a node source and adds the time spent in its per-node
// reads to busy; the sampler workers call it concurrently.
type timedSource struct {
	graph.NodeSource
	busy atomic.Int64
}

func (s *timedSource) AppendNeighbors(buf []int32, i int32) []int32 {
	t := time.Now()
	buf = s.NodeSource.AppendNeighbors(buf, i)
	s.busy.Add(int64(time.Since(t)))
	return buf
}

func (s *timedSource) CopyFeatureRow(dst []float32, i int32) {
	t := time.Now()
	s.NodeSource.CopyFeatureRow(dst, i)
	s.busy.Add(int64(time.Since(t)))
}

func (s *timedSource) Label(i int32) int32 {
	t := time.Now()
	l := s.NodeSource.Label(i)
	s.busy.Add(int64(time.Since(t)))
	return l
}

// egoForward mirrors the ego trainer's forward over one sampled context.
func egoForward(m *mirror, c *sample.Context, train bool) *tensor.Mat {
	p := sparse.FromGraph(c.Sub)
	in := &model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p, EdgeBuckets: p.LocalEdgeBuckets(false, 0)}
	return m.forward(in, spec, train)
}

// egoMirror is the mirrored trial's record.
type egoMirror struct {
	tr      *tracer
	loss    float64
	epoch   time.Duration // the last epoch's wall time, as the trainer reports it
	steps   []time.Duration
	ctxRows int
	ctxs    int
	stall   time.Duration
	io      torchgt.DatasetIOStats
	read    time.Duration
}

// mirrorEgoTrial replays train.EgoTrainer.Run through the public sampler,
// pipeline, model-layer and optimiser functions, with spans.
func mirrorEgoTrial(e *egoSetup) (*egoMirror, error) {
	view, err := e.open()
	if err != nil {
		return nil, err
	}
	src := &timedSource{NodeSource: view}
	res := &egoMirror{tr: newTracer()}
	mcfg := e.cfg
	mcfg.GlobalToken = false
	g := model.NewGraphTransformer(mcfg)
	m, err := newMirror(g, res.tr, nil)
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(egoLR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(e.trainSeed))
	pipe := sample.NewPipeline(sample.New(src, sample.Config{Hops: 2, MaxSize: egoCtx, Seed: e.trainSeed, Workers: egoWorkers}))
	var trainIdx, testIdx []int32
	for i, n := 0, src.NumNodes(); i < n; i++ {
		s := src.SplitOf(int32(i))
		if s.Train() {
			trainIdx = append(trainIdx, int32(i))
		} else if s.Test() {
			testIdx = append(testIdx, int32(i))
		}
	}
	var serial uint64
	// each consumes one pipeline pass and adds the consumer's wait for
	// every context to *stall.
	each := func(targets []int32, stall *time.Duration, fn func(c *sample.Context)) error {
		start := serial
		serial += uint64(len(targets))
		last := time.Now()
		return pipe.Each(targets, start, func(c *sample.Context) {
			*stall += time.Since(last)
			fn(c)
			last = time.Now()
		})
	}
	for ep := 0; ep < egoEpochs; ep++ {
		epochStart := time.Now()
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		var epLoss float64
		for lo := 0; lo < len(trainIdx); lo += egoBatch {
			batch := trainIdx[lo:min(lo+egoBatch, len(trainIdx))]
			t0 := time.Now()
			var total float64
			err := each(batch, &res.stall, func(c *sample.Context) {
				res.ctxRows += len(c.Nodes)
				res.ctxs++
				t := time.Now()
				logits := egoForward(m, c, true)
				t = res.tr.since("model.fwd", t)
				mask := make([]bool, len(c.Nodes))
				mask[0] = true
				labels := make([]int32, len(c.Nodes))
				labels[0] = c.Label
				l, dl := nn.SoftmaxCrossEntropy(logits, labels, mask)
				t = res.tr.since("nn.loss", t)
				m.backward(dl)
				res.tr.since("model.bwd", t)
				total += l
			})
			t := time.Now()
			opt.Step(g.Params())
			res.tr.since("nn.adam", t)
			if err != nil {
				return nil, err
			}
			epLoss += total
			res.steps = append(res.steps, time.Since(t0))
		}
		t := time.Now()
		if err := mirrorEval(m, each, testIdx, 200, rng); err != nil {
			return nil, err
		}
		res.tr.since("train.eval", t)
		res.epoch = time.Since(epochStart)
		res.loss = epLoss / float64(len(trainIdx))
	}
	t := time.Now()
	if err := mirrorEval(m, each, testIdx, 400, rng); err != nil {
		return nil, err
	}
	res.tr.since("train.eval", t)
	res.io, _ = torchgt.DatasetIOStatsOf(view)
	res.read = time.Duration(src.busy.Load())
	return res, nil
}

// mirrorEval mirrors the ego trainer's test-sample evaluation: n targets
// drawn from the trainer RNG, classified through the pipeline.
func mirrorEval(m *mirror, each func([]int32, *time.Duration, func(*sample.Context)) error, testIdx []int32, n int, rng *rand.Rand) error {
	if len(testIdx) == 0 {
		return nil
	}
	targets := make([]int32, min(n, len(testIdx)))
	for i := range targets {
		targets[i] = testIdx[rng.Intn(len(testIdx))]
	}
	// Layer spans of evaluation forwards are kept out of the per-step
	// figures.
	keep := m.tr
	m.tr = newTracer()
	defer func() { m.tr = keep }()
	var stall time.Duration
	return each(targets, &stall, func(c *sample.Context) { egoForward(m, c, false) })
}

// sampleReplay times the sampler alone: the first batches of training
// targets sampled synchronously through a fresh view. It reports the mean
// time per context.
func sampleReplay(e *egoSetup, targets int) (time.Duration, error) {
	view, err := e.open()
	if err != nil {
		return 0, err
	}
	s := sample.New(view, sample.Config{Hops: 2, MaxSize: egoCtx, Seed: e.trainSeed})
	c := s.NewContext()
	var ids []int32
	for i, n := 0, view.NumNodes(); i < n && len(ids) < targets; i++ {
		if view.SplitOf(int32(i)).Train() {
			ids = append(ids, int32(i))
		}
	}
	t0 := time.Now()
	for i, id := range ids {
		s.Sample(c, id, uint64(i))
	}
	return time.Since(t0) / time.Duration(max(len(ids), 1)), view.SourceErr()
}

func traceEgo(o *outcome, e *egoSetup) (*outcome, error) {
	m := o.metrics
	src, err := e.open()
	if err != nil {
		return nil, err
	}
	before := readGo()
	tr := train.NewEgoTrainerSource(train.EgoConfig{
		Epochs: egoEpochs, LR: egoLR, MaxSize: egoCtx, Batch: egoBatch, Seed: e.trainSeed, Workers: egoWorkers,
	}, e.cfg, src)
	t0 := time.Now()
	base, err := tr.Run()
	baseWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	putGo(m, before)
	steps := (e.targets + egoBatch - 1) / egoBatch * egoEpochs
	m["model.alloc_mb_per_step"] = float64(readGo().allocBytes-before.allocBytes) / (1 << 20) / float64(steps)
	ws := tr.Model.Plan().AllocStats()
	m["model.ws_hit_frac"] = frac(float64(ws.PoolHits), float64(ws.Gets))

	t1 := time.Now()
	mr, err := mirrorEgoTrial(e)
	wall := time.Since(t1)
	o.attempted = 2 * egoEpochs
	if err != nil {
		o.failed = egoEpochs
		o.check(false, "mirrored ego trial: %v", err)
		return o, nil
	}
	baseLoss := base.Curve[len(base.Curve)-1].Loss
	o.check(math.Float64bits(mr.loss) == math.Float64bits(baseLoss),
		"mirrored ego loss %v differs from the trainer's %v", mr.loss, baseLoss)
	o.check(mr.io.Misses > 0, "ego-ooc: the mirrored trial did not read through the shard view")

	var stepS []float64
	for _, d := range mr.steps {
		stepS = append(stepS, d.Seconds())
	}
	n := len(stepS)
	m["train.step_s"] = mean(stepS)
	m["train.sparse_step_s"] = mean(stepS)
	m["train.eval_s"] = mr.tr.seconds("train.eval", n)
	putSpans(m, mr.tr, n)
	m["attention.sparse.fwd_s"] = mr.tr.seconds("attention.sparse.fwd", n)
	m["attention.sparse.bwd_s"] = mr.tr.seconds("attention.sparse.bwd", n)
	m["tensor.matmul_gflops"] = matmulGFLOPS(egoCtx, e.cfg.Hidden)
	m["sample.stall_s"] = mr.stall.Seconds() / float64(n)
	m["sample.ctx_rows"] = frac(float64(mr.ctxRows), float64(mr.ctxs))
	m["shard.read_s"] = mr.read.Seconds() / float64(n)
	m["shard.hit_frac"] = frac(float64(mr.io.Hits), float64(mr.io.Hits+mr.io.Misses))
	m["shard.bytes_read_mb"] = float64(mr.io.BytesRead) / (1 << 20)
	perCtx, err := sampleReplay(e, 4*egoBatch)
	if err != nil {
		return nil, err
	}
	m["sample.sample_s"] = perCtx.Seconds() * egoBatch

	m["trace.overhead_samples_per_s"] = float64(egoEpochs*e.targets)/wall.Seconds() - float64(egoEpochs*e.targets)/baseWall.Seconds()
	m["trace.overhead_lat_p50_ms"] = ms(mr.epoch) - ms(base.Curve[len(base.Curve)-1].EpochTime)
	return o, nil
}

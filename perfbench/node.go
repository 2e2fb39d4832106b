package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"torchgt"
	"torchgt/internal/attention"
	"torchgt/internal/dist/transport"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Full-graph node classification: arxiv-sim at N=1024 fed to GPH-Slim as
// one sequence, TorchGT with a pinned βthre. One trial is one interleave
// period: a dense (flash) epoch followed by seven cluster-sparse epochs, one
// optimiser step each.
const (
	nodeN        = 1024
	nodeEpochs   = 8
	nodeInterval = 8
	nodeK        = 8
	nodeDb       = 16
	nodeBeta     = 0.5
	nodeLR       = 1e-3
	setupReps    = 9
)

type nodeSetup struct {
	ds        *torchgt.NodeDataset
	cfg       model.Config
	trainSeed int64
	targets   int // labelled training targets per epoch
}

func openNode(seed int64) (*nodeSetup, error) {
	ds, err := torchgt.LoadNodeDataset("arxiv-sim", nodeN, deriveSeed(seed, "dataset"))
	if err != nil {
		return nil, err
	}
	n := &nodeSetup{
		ds:        ds,
		cfg:       model.GraphormerSlim(ds.X.Cols, ds.NumClasses, deriveSeed(seed, "model")),
		trainSeed: deriveSeed(seed, "train"),
	}
	for _, m := range ds.TrainMask {
		if m {
			n.targets++
		}
	}
	return n, nil
}

func (n *nodeSetup) session(extra ...torchgt.SessionOption) (*torchgt.Session, error) {
	opts := append([]torchgt.SessionOption{
		torchgt.WithEpochs(nodeEpochs), torchgt.WithLR(nodeLR), torchgt.WithSeed(n.trainSeed),
		torchgt.WithInterval(nodeInterval), torchgt.WithClusterK(nodeK), torchgt.WithDb(nodeDb),
		torchgt.WithFixedBeta(nodeBeta),
	}, extra...)
	return torchgt.NewSession(torchgt.MethodTorchGT, n.cfg, torchgt.NodeTask(n.ds), opts...)
}

// trial is one fixed-step training run.
type trial struct {
	losses []float64       // per-epoch training loss
	epochs []time.Duration // per-epoch wall time
	wall   time.Duration
	pairs  int64
}

func runSession(s *torchgt.Session) (trial, error) {
	t0 := time.Now()
	res, err := s.Run(context.Background())
	tr := trial{wall: time.Since(t0)}
	if err != nil {
		return tr, err
	}
	for _, p := range res.Curve {
		tr.losses = append(tr.losses, p.Loss)
		tr.epochs = append(tr.epochs, p.EpochTime)
		tr.pairs += p.Pairs
	}
	return tr, nil
}

func sameLosses(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// trainingMetrics fills the end-to-end metrics shared by the training
// workloads from the trials of one run. dense marks the epochs that run the
// dense attention phase; epochs of the same phase do the same work, so the
// throughput uses the median epoch time of each phase, which a transient
// stall on the machine does not move.
func trainingMetrics(o *outcome, trials []trial, targetsPerEpoch int, setups []float64, dense func(epoch int) bool) {
	var epochMS, wallMS, denseMS, sparseMS []float64
	for _, t := range trials {
		for i, d := range t.epochs {
			epochMS = append(epochMS, ms(d))
			if dense(i) {
				denseMS = append(denseMS, ms(d))
			} else {
				sparseMS = append(sparseMS, ms(d))
			}
		}
		wallMS = append(wallMS, ms(t.wall))
	}
	epochs := len(trials[0].epochs)
	var trialMS float64
	for i := 0; i < epochs; i++ {
		if dense(i) {
			trialMS += median(denseMS)
		} else {
			trialMS += median(sparseMS)
		}
	}
	l := trials[0].losses
	m := o.metrics
	m["setup_s"] = median(setups)
	m["samples_per_s"] = frac(float64(epochs*targetsPerEpoch), trialMS/1e3)
	m["final_loss"] = l[len(l)-1]
	m["peak_rss_mb"] = peakRSSMB()
	m["ok_frac"] = 1 - frac(float64(o.failed), float64(o.attempted))
	m["error_frac"] = 1 - m["ok_frac"]
	m["lat_p50_ms"] = quantile(epochMS, 0.5)
	m["lat_p90_ms"] = quantile(epochMS, 0.9)
	m["hi_lat_p50_ms"] = quantile(wallMS, 0.5)
	m["hi_lat_p90_ms"] = quantile(wallMS, 0.9)
}

// nodeDense reports whether a node-full epoch runs the dense phase.
func nodeDense(epoch int) bool { return epoch%nodeInterval == 0 }

// checkTrials requires every trial of a run to reproduce the first one's
// loss curve bitwise, a finite final loss, and the loss to fall over a
// multi-epoch trial.
func checkTrials(o *outcome, trials []trial, what string) {
	for i, t := range trials {
		if !sameLosses(t.losses, trials[0].losses) {
			o.check(false, "%s: trial %d loss curve differs from trial 0", what, i)
		}
	}
	l := trials[0].losses
	last := l[len(l)-1]
	o.check(!math.IsNaN(last) && !math.IsInf(last, 0), "%s: final loss %v is not finite", what, last)
	if len(l) > 1 {
		o.check(last < l[0], "%s: loss did not fall (%v → %v)", what, l[0], last)
	}
}

func runNodeFull(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, backend: torchgt.ActiveBackend().Name()}
	var n *nodeSetup
	var setups, opens []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if n, err = openNode(rc.seed); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		if _, err := n.session(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if rc.trace {
		return traceNode(o, n, nil, opens)
	}
	var trials []trial
	for b := newBudget(rc.seconds); b.more(); {
		s, err := n.session()
		if err != nil {
			return nil, err
		}
		t, err := runSession(s)
		o.attempted += nodeEpochs
		if err != nil {
			o.failed += nodeEpochs
			o.check(false, "node-full: %v", err)
			break
		}
		b.done(t.wall)
		trials = append(trials, t)
	}
	if len(trials) > 0 {
		checkTrials(o, trials, "node-full")
		trainingMetrics(o, trials, n.targets, setups, nodeDense)
	}
	return o, nil
}

// ranks is a two-rank TCP-loopback world inside this process.
type ranks struct {
	ts []torchgt.Transport
}

func (r *ranks) close() {
	for _, t := range r.ts {
		if t != nil {
			t.Close()
		}
	}
}

// rendezvous joins two goroutine ranks over TCP on a free loopback port.
func rendezvous() (*ranks, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r := &ranks{ts: make([]torchgt.Transport, 2)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range r.ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.ts[i], errs[i] = torchgt.Rendezvous(ctx, addr, i, 2, torchgt.TransportOptions{Fingerprint: "perfbench-node-sp2"})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, fmt.Errorf("rendezvous: %w", err)
		}
	}
	return r, nil
}

// onRanks runs fn for both ranks concurrently, waits for both, and returns
// the first error.
func onRanks(fn func(rank int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// sp2Trial trains one trial on both ranks and returns rank 0's curve; it
// checks that rank 1 reports the same losses.
func sp2Trial(o *outcome, n *nodeSetup, r *ranks) (trial, [2]*torchgt.Session, error) {
	var ss [2]*torchgt.Session
	for i, t := range r.ts {
		s, err := n.session(torchgt.WithTransport(t))
		if err != nil {
			return trial{}, ss, err
		}
		ss[i] = s
	}
	var ts [2]trial
	t0 := time.Now()
	err := onRanks(func(rank int) error {
		var err error
		ts[rank], err = runSession(ss[rank])
		return err
	})
	ts[0].wall = time.Since(t0)
	if err == nil {
		o.check(sameLosses(ts[0].losses, ts[1].losses), "node-sp2-tcp: rank 1 loss curve differs from rank 0")
	}
	return ts[0], ss, err
}

func runNodeSP2(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, backend: torchgt.ActiveBackend().Name()}
	var n *nodeSetup
	var r *ranks
	var setups, opens, rdvs []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if n, err = openNode(rc.seed); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		t1 := time.Now()
		if r, err = rendezvous(); err != nil {
			return nil, err
		}
		rdvs = append(rdvs, time.Since(t1).Seconds())
		for _, t := range r.ts {
			if _, err := n.session(torchgt.WithTransport(t)); err != nil {
				r.close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	if rc.trace {
		o.metrics["dist.rendezvous_s"] = median(rdvs)
		return traceNode(o, n, r, opens)
	}
	// The sequence-parallel contract: two TCP ranks reproduce the serial
	// single-rank trajectory bitwise at the same seed and steps. The serial
	// reference runs first, inside the run's time budget.
	b := newBudget(rc.seconds)
	s, err := n.session()
	if err != nil {
		return nil, err
	}
	serial, err := runSession(s)
	if err != nil {
		return nil, err
	}
	var trials []trial
	for b.more() {
		t, _, err := sp2Trial(o, n, r)
		o.attempted += nodeEpochs
		if err != nil {
			o.failed += nodeEpochs
			o.check(false, "node-sp2-tcp: %v", err)
			break
		}
		b.done(t.wall)
		trials = append(trials, t)
	}
	if len(trials) == 0 {
		return o, nil
	}
	checkTrials(o, trials, "node-sp2-tcp")
	o.check(sameLosses(serial.losses, trials[0].losses),
		"node-sp2-tcp: loss curve %v differs from the serial node-full curve %v", trials[0].losses, serial.losses)
	trainingMetrics(o, trials, n.targets, setups, nodeDense)
	return o, nil
}

// nodePrep is the preprocessing TorchGT's node trainer performs, rebuilt
// from the public partition/sparse/attention/encoding functions so the
// mirrored trial sees the same dataset order, inputs and attention specs.
type nodePrep struct {
	ds     *graph.NodeDataset
	in     *model.Inputs
	policy *attention.InterleavePolicy
	sparse *model.AttentionSpec
}

func prepNode(n *nodeSetup) (*nodePrep, error) {
	part := partition.Partition(n.ds.G, nodeK, n.trainSeed)
	perm, bounds := partition.ClusterOrder(part, nodeK)
	ds := reorder(n.ds, perm)
	layout, err := sparse.NewClusterLayout(sparse.FromGraph(ds.G), bounds)
	if err != nil {
		return nil, err
	}
	r := sparse.Reform(layout, nodeDb, nodeBeta)
	degIn, degOut := encoding.DegreeBuckets(ds.G, 63)
	return &nodePrep{
		ds:     ds,
		in:     &model.Inputs{X: ds.X, DegInIdx: degIn, DegOutIdx: degOut},
		policy: attention.NewInterleavePolicy(ds.G, n.cfg.Layers, nodeInterval),
		sparse: &model.AttentionSpec{Mode: model.ModeClusterSparse, Reformed: r, KeepBuckets: r.Keep.LocalEdgeBuckets(false, 0)},
	}, nil
}

func (p *nodePrep) specAt(epoch int) *model.AttentionSpec {
	if p.policy.UseSparse(epoch) {
		return p.sparse
	}
	return &model.AttentionSpec{Mode: model.ModeFlash}
}

// reorder relabels a node dataset by perm (old id → new id).
func reorder(ds *graph.NodeDataset, perm []int32) *graph.NodeDataset {
	n := ds.G.N
	out := &graph.NodeDataset{
		Name: ds.Name, G: ds.G.Permute(perm), NumClasses: ds.NumClasses,
		Blocks: make([]int32, n), Y: make([]int32, n),
		TrainMask: make([]bool, n), ValMask: make([]bool, n), TestMask: make([]bool, n),
		X: tensor.New(n, ds.X.Cols),
	}
	for old := 0; old < n; old++ {
		nw := perm[old]
		out.Blocks[nw] = ds.Blocks[old]
		out.Y[nw] = ds.Y[old]
		out.TrainMask[nw] = ds.TrainMask[old]
		out.ValMask[nw] = ds.ValMask[old]
		out.TestMask[nw] = ds.TestMask[old]
		copy(out.X.Row(int(nw)), ds.X.Row(old))
	}
	return out
}

// mirrorRank is one rank's mirrored trial.
type mirrorRank struct {
	tr     *tracer
	losses []float64
	steps  []time.Duration
	dense  []bool
	arrive []time.Time // arrival at the gradient synchronisation, per step
	pairs  int64
}

func mirrorNodeTrial(n *nodeSetup, p *nodePrep, grp *transport.Group) (*mirrorRank, error) {
	res := &mirrorRank{tr: newTracer()}
	g := model.NewGraphTransformer(n.cfg)
	m, err := newMirror(g, res.tr, grp)
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(nodeLR)
	opt.ClipNorm = 5
	for ep := 0; ep < nodeEpochs; ep++ {
		spec := p.specAt(ep)
		t0 := time.Now()
		loss, logits := m.step(opt, nodeLR, ep, p.in, spec, p.ds.Y, p.ds.TrainMask)
		dt := time.Since(t0)
		t1 := time.Now()
		nn.Accuracy(logits, p.ds.Y, p.ds.TestMask)
		nn.Accuracy(logits, p.ds.Y, p.ds.ValMask)
		res.tr.since("train.eval", t1)
		res.losses = append(res.losses, loss)
		res.steps = append(res.steps, dt)
		res.dense = append(res.dense, spec.Mode != model.ModeClusterSparse)
		res.pairs += m.pairs
	}
	// The Session ends with a clean evaluation forward; its layer spans are
	// kept out of the per-step figures.
	t := time.Now()
	m.tr = newTracer()
	logits := m.forward(p.in, p.specAt(nodeEpochs), false)
	nn.Accuracy(logits, p.ds.Y, p.ds.TestMask)
	m.tr = res.tr
	res.tr.since("train.eval", t)
	res.arrive = m.arrive
	return res, nil
}

// traceNode is the traced run of node-full (r == nil) and node-sp2-tcp: an
// untraced Session trial supplies the program's own counters and the
// baseline for the tracing overhead, then a mirrored trial supplies the
// spans and must reproduce the Session's losses bitwise.
func traceNode(o *outcome, n *nodeSetup, r *ranks, opens []float64) (*outcome, error) {
	m := o.metrics
	m["data.open_s"] = median(opens)
	before := readGo()
	var base trial
	var ss [2]*torchgt.Session
	var err error
	if r == nil {
		ss[0], err = n.session()
		if err == nil {
			base, err = runSession(ss[0])
		}
	} else {
		base, ss, err = sp2Trial(o, n, r)
	}
	if err != nil {
		return nil, err
	}
	putGo(m, before)
	after := readGo()
	m["model.alloc_mb_per_step"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / nodeEpochs
	ws := ss[0].Model().Plan().AllocStats()
	m["model.ws_hit_frac"] = frac(float64(ws.PoolHits), float64(ws.Gets))
	m["attention.pairs_per_step"] = float64(base.pairs) / nodeEpochs
	m["dist.bytes_per_step"] = float64(ss[0].CommBytes()) / nodeEpochs

	t0 := time.Now()
	p, err := prepNode(n)
	if err != nil {
		return nil, err
	}
	m["train.preprocess_s"] = time.Since(t0).Seconds()

	var mr [2]*mirrorRank
	t1 := time.Now()
	if r == nil {
		mr[0], err = mirrorNodeTrial(n, p, nil)
	} else {
		err = onRanks(func(rank int) error {
			grp, err := transport.NewGroup(r.ts[rank], []int{0, 1})
			if err != nil {
				return err
			}
			mr[rank], err = mirrorNodeTrial(n, p, grp)
			return err
		})
	}
	wall := time.Since(t1)
	o.attempted = 2 * nodeEpochs
	if err != nil {
		o.failed = nodeEpochs
		o.check(false, "mirrored trial: %v", err)
		return o, nil
	}
	o.check(sameLosses(mr[0].losses, base.losses),
		"mirrored loss curve %v differs from the Session's %v", mr[0].losses, base.losses)
	if mr[1] != nil {
		o.check(sameLosses(mr[1].losses, base.losses), "mirrored rank 1 loss curve differs from the Session's")
		var skew time.Duration
		for i := range mr[0].arrive {
			d := mr[0].arrive[i].Sub(mr[1].arrive[i])
			skew += max(d, -d)
		}
		m["dist.rank_skew_s"] = skew.Seconds() / float64(len(mr[0].arrive))
	}
	tr := mr[0]
	var all, dense, sparseSteps []float64
	for i, d := range tr.steps {
		all = append(all, d.Seconds())
		if tr.dense[i] {
			dense = append(dense, d.Seconds())
		} else {
			sparseSteps = append(sparseSteps, d.Seconds())
		}
	}
	steps := len(all)
	m["train.step_s"] = mean(all)
	m["train.dense_step_s"] = mean(dense)
	m["train.sparse_step_s"] = mean(sparseSteps)
	m["train.eval_s"] = tr.tr.seconds("train.eval", steps)
	putSpans(m, tr.tr, steps)
	m["attention.dense.fwd_s"] = tr.tr.seconds("attention.dense.fwd", len(dense))
	m["attention.dense.bwd_s"] = tr.tr.seconds("attention.dense.bwd", len(dense))
	m["attention.clustersparse.fwd_s"] = tr.tr.seconds("attention.clustersparse.fwd", len(sparseSteps))
	m["attention.clustersparse.bwd_s"] = tr.tr.seconds("attention.clustersparse.bwd", len(sparseSteps))
	m["tensor.matmul_gflops"] = matmulGFLOPS(nodeN, n.cfg.Hidden)

	tracedRate := float64(nodeEpochs*n.targets) / wall.Seconds()
	m["trace.overhead_samples_per_s"] = tracedRate - float64(nodeEpochs*n.targets)/base.wall.Seconds()
	var baseMS, tracedMS []float64
	for i := range base.epochs {
		baseMS = append(baseMS, ms(base.epochs[i]))
		tracedMS = append(tracedMS, ms(tr.steps[i]))
	}
	m["trace.overhead_lat_p50_ms"] = median(tracedMS) - median(baseMS)
	return o, nil
}

// putSpans writes the per-step layer spans shared by the training
// workloads, and the step time no span accounts for.
func putSpans(m map[string]float64, tr *tracer, steps int) {
	m["model.fwd_s"] = tr.seconds("model.fwd", steps)
	m["model.bwd_s"] = tr.seconds("model.bwd", steps)
	m["nn.proj_s"] = tr.seconds("nn.proj", steps)
	m["nn.ffn_s"] = tr.seconds("nn.ffn", steps)
	m["nn.norm_s"] = tr.seconds("nn.norm", steps)
	m["nn.loss_s"] = tr.seconds("nn.loss", steps)
	m["nn.adam_s"] = tr.seconds("nn.adam", steps)
	m["dist.alltoall_s"] = tr.seconds("dist.alltoall", steps)
	m["dist.allreduce_s"] = tr.seconds("dist.allreduce", steps)
	attributed := m["model.fwd_s"] + m["model.bwd_s"] + m["nn.loss_s"] + m["dist.allreduce_s"] + m["nn.adam_s"]
	m["train.unattributed_s"] = m["train.step_s"] - attributed
}

// matmulGFLOPS times the active backend's MatMul at a projection shape
// (rows×hidden by hidden×hidden) for about 200ms.
func matmulGFLOPS(rows, hidden int) float64 {
	a, b, c := tensor.New(rows, hidden), tensor.New(hidden, hidden), tensor.New(rows, hidden)
	for i := range a.Data {
		a.Data[i] = float32(i%7) * 0.25
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) * 0.5
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		tensor.MatMul(c, a, b)
		n++
	}
	return 2 * float64(rows*hidden*hidden) * float64(n) / time.Since(t0).Seconds() / 1e9
}

package main

import (
	"fmt"
	"sync"
	"time"

	"torchgt/internal/attention"
	"torchgt/internal/dist/transport"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// mirror runs a GraphTransformer's forward and backward pass by calling the
// model's layers one by one through their public functions, in exactly the
// order model.GraphTransformer, model.Block and model.MHA call them, and
// records a span around each call. The per-head attention section is driven
// through MHA.KernelFor, and its span covers the whole section: all heads on
// the runtime's worker slots for the single-process plan, or
// this rank's heads plus the transport.Group all-gathers of
// model.DistSeqParallel when grp is set. Because nothing is reordered, a
// mirrored run reproduces the program's own losses bitwise, and the
// workloads check that it does.
type mirror struct {
	g    *model.GraphTransformer
	tr   *tracer
	grp  *transport.Group // nil: every head is local
	kind string           // attention span label for the current spec

	spec    *model.AttentionSpec
	kernels [][]attention.Kernel // [block][head], nil for remote heads
	pairs   int64                // attended pairs of the last forward
	arrive  []time.Time          // arrival at each gradient synchronisation
}

func newMirror(g *model.GraphTransformer, tr *tracer, grp *transport.Group) (*mirror, error) {
	if g.Global != nil || g.LapProj != nil {
		return nil, fmt.Errorf("mirror: global-token and Laplacian-PE models are not mirrored")
	}
	m := &mirror{g: g, tr: tr, grp: grp, kernels: make([][]attention.Kernel, len(g.Blocks))}
	for i := range m.kernels {
		m.kernels[i] = make([]attention.Kernel, g.Cfg.Heads)
	}
	return m, nil
}

// kindOf names the attention span of a spec. TorchGT's dense phase runs the
// flash kernel over the fully connected sequence; it is reported as dense.
func kindOf(spec *model.AttentionSpec) string {
	switch spec.Mode {
	case model.ModeClusterSparse:
		return "attention.clustersparse"
	case model.ModeSparse:
		return "attention.sparse"
	}
	return "attention.dense"
}

// localHeads reports this rank's head range.
func (m *mirror) localHeads() (lo, hi int) {
	h := m.g.Cfg.Heads
	if m.grp == nil {
		return 0, h
	}
	hp := h / m.grp.Size()
	return m.grp.Index() * hp, (m.grp.Index() + 1) * hp
}

// forward mirrors GraphTransformer.Forward for node-level models.
func (m *mirror) forward(in *model.Inputs, spec *model.AttentionSpec, train bool) *tensor.Mat {
	g := m.g
	g.Plan().StepReset()
	m.spec, m.kind, m.pairs = spec, kindOf(spec), 0
	t := time.Now()
	h := g.InProj.Forward(in.X)
	t = m.tr.since("nn.proj", t)
	if g.DegIn != nil {
		tensor.AddInPlace(h, g.DegIn.Forward(in.DegInIdx))
		tensor.AddInPlace(h, g.DegOut.Forward(in.DegOutIdx))
	}
	h = g.InDrop.Forward(h, train)
	for i, b := range g.Blocks {
		h = m.blockForward(i, b, h, train)
	}
	t = time.Now()
	h = g.FinalLN.Forward(h)
	t = m.tr.since("nn.norm", t)
	out := g.Head.Forward(h)
	m.tr.since("nn.proj", t)
	return out
}

// backward mirrors GraphTransformer.Backward for node-level models.
func (m *mirror) backward(dLogits *tensor.Mat) {
	g := m.g
	t := time.Now()
	dh := g.Head.Backward(dLogits)
	t = m.tr.since("nn.proj", t)
	dh = g.FinalLN.Backward(dh)
	m.tr.since("nn.norm", t)
	for i := len(g.Blocks) - 1; i >= 0; i-- {
		dh = m.blockBackward(i, g.Blocks[i], dh)
	}
	dh = g.InDrop.Backward(dh)
	if g.DegIn != nil {
		g.DegIn.Backward(dh)
		g.DegOut.Backward(dh)
	}
	t = time.Now()
	g.InProj.Backward(dh)
	m.tr.since("nn.proj", t)
}

func (m *mirror) blockForward(i int, b *model.Block, x *tensor.Mat, train bool) *tensor.Mat {
	t := time.Now()
	ln := b.LN1.Forward(x)
	m.tr.since("nn.norm", t)
	h := m.attnForward(i, b.Attn, ln)
	h = b.Drop1.Forward(h, train)
	x1 := tensor.New(x.Rows, x.Cols)
	tensor.Add(x1, x, h)
	t = time.Now()
	ln = b.LN2.Forward(x1)
	t = m.tr.since("nn.norm", t)
	f := b.FC2.Forward(b.FC1.ForwardGELU(ln))
	m.tr.since("nn.ffn", t)
	f = b.Drop2.Forward(f, train)
	out := tensor.New(x.Rows, x.Cols)
	tensor.Add(out, x1, f)
	return out
}

func (m *mirror) blockBackward(i int, b *model.Block, dOut *tensor.Mat) *tensor.Mat {
	df := b.Drop2.Backward(dOut)
	t := time.Now()
	d := b.FC1.BackwardGELU(b.FC2.Backward(df))
	t = m.tr.since("nn.ffn", t)
	dx1 := b.LN2.Backward(d)
	m.tr.since("nn.norm", t)
	tensor.AddInPlace(dx1, dOut)
	dh := b.Drop1.Backward(dx1)
	da := m.attnBackward(i, b.Attn, dh)
	t = time.Now()
	dx := b.LN1.Backward(da)
	m.tr.since("nn.norm", t)
	tensor.AddInPlace(dx, dx1)
	return dx
}

// attnForward mirrors MHA.Forward with the plan's head section inlined.
func (m *mirror) attnForward(i int, a *model.MHA, x *tensor.Mat) *tensor.Mat {
	if err := m.spec.Validate(x.Rows); err != nil {
		panic(err)
	}
	s := x.Rows
	t := time.Now()
	q, k, v := a.WQ.Forward(x), a.WK.Forward(x), a.WV.Forward(x)
	m.tr.since("nn.proj", t)
	lo, hi := m.localHeads()
	local := tensor.New(s, (hi-lo)*a.Dh)
	t = time.Now()
	m.eachHead(lo, hi, func(h int) {
		kr := a.KernelFor(h, m.spec, s)
		oh := kr.Forward(colSlice(q, h*a.Dh, a.Dh), colSlice(k, h*a.Dh, a.Dh), colSlice(v, h*a.Dh, a.Dh))
		m.kernels[i][h] = kr
		addColSlice(local, oh, (h-lo)*a.Dh)
	})
	m.tr.since(m.kind+".fwd", t)
	for h := lo; h < hi; h++ {
		m.pairs += m.kernels[i][h].Pairs()
	}
	concat := m.gather(local, a.Hidden)
	t = time.Now()
	out := a.WO.Forward(concat)
	m.tr.since("nn.proj", t)
	return out
}

// attnBackward mirrors MHA.Backward with the plan's head section inlined.
func (m *mirror) attnBackward(i int, a *model.MHA, dout *tensor.Mat) *tensor.Mat {
	s := dout.Rows
	t := time.Now()
	dConcat := a.WO.Backward(dout)
	m.tr.since("nn.proj", t)
	lo, hi := m.localHeads()
	dq, dk, dv := tensor.New(s, (hi-lo)*a.Dh), tensor.New(s, (hi-lo)*a.Dh), tensor.New(s, (hi-lo)*a.Dh)
	t = time.Now()
	m.eachHead(lo, hi, func(h int) {
		kr := m.kernels[i][h]
		dqh, dkh, dvh := kr.Backward(colSlice(dConcat, h*a.Dh, a.Dh))
		addColSlice(dq, dqh, (h-lo)*a.Dh)
		addColSlice(dk, dkh, (h-lo)*a.Dh)
		addColSlice(dv, dvh, (h-lo)*a.Dh)
		a.AccumBiasGrads(h, kr, m.spec)
	})
	m.tr.since(m.kind+".bwd", t)
	dq, dk, dv = m.gather(dq, a.Hidden), m.gather(dk, a.Hidden), m.gather(dv, a.Hidden)
	t = time.Now()
	dx := a.WQ.Backward(dq)
	tensor.AddInPlace(dx, a.WK.Backward(dk))
	tensor.AddInPlace(dx, a.WV.Backward(dv))
	m.tr.since("nn.proj", t)
	return dx
}

// eachHead runs body for heads [lo, hi) the way the program schedules
// them: the single-process runtime spreads heads over its worker slots
// (head h on slot h mod workers), DistSeqParallel runs a rank's heads in
// order. Heads write disjoint columns and bias-table entries, so the result
// does not depend on the interleaving.
func (m *mirror) eachHead(lo, hi int, body func(h int)) {
	w := 1
	if m.grp == nil && m.g.Runtime() != nil {
		w = min(m.g.Runtime().Options().Workers, hi-lo)
	}
	if w <= 1 {
		for h := lo; h < hi; h++ {
			body(h)
		}
		return
	}
	var wg sync.WaitGroup
	for slot := 0; slot < w; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for h := lo + slot; h < hi; h += w {
				body(h)
			}
		}(slot)
	}
	wg.Wait()
}

// gather assembles the full-width head output from every rank's local
// columns, as DistSeqParallel does; with all heads local it is the identity
// up to the zero-initialise-then-add the program also performs.
func (m *mirror) gather(local *tensor.Mat, width int) *tensor.Mat {
	out := tensor.New(local.Rows, width)
	if m.grp == nil {
		addColSlice(out, local, 0)
		return out
	}
	t := time.Now()
	parts, err := m.grp.AllGather(local)
	m.tr.since("dist.alltoall", t)
	if err != nil {
		panic(err)
	}
	for r, p := range parts {
		addColSlice(out, p, r*local.Cols)
	}
	return out
}

// syncGradients mirrors DistSeqParallel.SyncGradients for a single replica:
// each bias table's gradient entries are taken from the rank owning their
// head, then the group and the world synchronise.
func (m *mirror) syncGradients() {
	if m.grp == nil || m.grp.Size() <= 1 {
		return
	}
	t := time.Now()
	m.arrive = append(m.arrive, t)
	heads := m.g.Cfg.Heads
	hp := heads / m.grp.Size()
	me := m.grp.Index()
	for _, b := range m.g.Blocks {
		if b.Attn.BiasTable == nil {
			continue
		}
		pr := b.Attn.BiasTable.W
		parts, err := m.grp.AllGather(pr.Grad)
		if err != nil {
			panic(err)
		}
		for e := range pr.Grad.Data {
			if owner := (e % heads) / hp; owner != me {
				pr.Grad.Data[e] = parts[owner].Data[e]
			}
		}
	}
	for k := 0; k < 2; k++ { // the group barrier, then the world barrier
		if err := m.grp.Barrier(); err != nil {
			panic(err)
		}
	}
	m.tr.since("dist.allreduce", t)
}

// step runs one training step as train.Loop does: forward, masked
// cross-entropy, backward, gradient synchronisation, Adam at a constant
// learning rate, and the plan's step reset. It returns the loss and logits.
func (m *mirror) step(opt *nn.Adam, lr float64, epoch int, in *model.Inputs, spec *model.AttentionSpec,
	labels []int32, mask []bool) (float64, *tensor.Mat) {
	t := time.Now()
	logits := m.forward(in, spec, true)
	t = m.tr.since("model.fwd", t)
	loss, dl := nn.SoftmaxCrossEntropy(logits, labels, mask)
	t = m.tr.since("nn.loss", t)
	m.backward(dl)
	m.tr.since("model.bwd", t)
	m.syncGradients()
	t = time.Now()
	nn.StepWith(opt, nn.ConstantLR{Base: lr}, epoch, m.g.Params())
	m.tr.since("nn.adam", t)
	m.g.Plan().StepReset()
	return loss, logits
}

// colSlice copies columns [c0, c0+w) of src into a new matrix.
func colSlice(src *tensor.Mat, c0, w int) *tensor.Mat {
	out := tensor.New(src.Rows, w)
	for i := 0; i < src.Rows; i++ {
		copy(out.Row(i), src.Row(i)[c0:c0+w])
	}
	return out
}

// addColSlice adds src into dst columns [c0, c0+src.Cols).
func addColSlice(dst, src *tensor.Mat, c0 int) {
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)[c0 : c0+src.Cols]
		for j, x := range src.Row(i) {
			d[j] += x
		}
	}
}

// The sequence-parallel step benchmark lives with the communication layer it
// exercises (package dist_test, so it may import internal/model). CI's
// bench-regression lane pins its allocs/op: a regression here means a lost
// pooling path in the plan's head section or a per-step allocation sneaking
// into the collectives.
package dist_test

import (
	"math/rand"
	"testing"

	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// BenchmarkSeqParStep measures one in-process sequence-parallel optimiser
// step (P=2, one goroutine per rank over the Mem transport): forward with
// two head-gathered attention layers, backward, gradient sync, optimiser
// update and workspace reset.
func BenchmarkSeqParStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(256, 0.05, rng)
	x := tensor.New(g.N, 8)
	tensor.RandN(x, rng, 1)
	degIn, degOut := encoding.DegreeBuckets(g, 63)
	in := &model.Inputs{X: x, DegInIdx: degIn, DegOutIdx: degOut}
	pat := sparse.FromGraph(g)
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: pat}
	y := make([]int32, g.N)
	mask := make([]bool, g.N)
	for i := range y {
		y[i] = int32(rng.Intn(3))
		mask[i] = true
	}

	cfg := model.Config{Name: "seqpar-bench", Layers: 2, Hidden: 32, Heads: 4, InDim: 8, OutDim: 3, Seed: 6}
	m := model.NewGraphTransformer(cfg)
	plan := model.NewInProcessSeqParallel(2, model.ExecOptions{PoolEnabled: true})
	m.SetPlan(plan)
	params := m.Params()
	opt := nn.NewAdam(1e-3)
	opt.ClipNorm = 5

	// warm the workspace pools so the loop measures steady state
	for i := 0; i < 2; i++ {
		logits := m.Forward(in, spec, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, y, mask)
		m.Backward(dl)
		plan.SyncGradients(params)
		opt.Step(params)
		plan.StepReset()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(in, spec, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, y, mask)
		m.Backward(dl)
		plan.SyncGradients(params)
		opt.Step(params)
		plan.StepReset()
	}
}

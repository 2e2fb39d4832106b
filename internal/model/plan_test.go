package model

import (
	"strings"
	"sync"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// seqparModel builds a model under the given plan with deterministic weights.
func seqparModel(seed int64, heads int, p Plan) (*GraphTransformer, *Inputs, *AttentionSpec) {
	cfg := GraphormerSlim(6, 3, seed)
	cfg.Layers = 2
	cfg.Heads = heads
	cfg.Hidden = 8 * heads
	cfg.Dropout = 0
	m := NewGraphTransformer(cfg)
	if p != nil {
		m.SetPlan(p)
	}
	g := tinyGraph(11, 19) // 19 rows: not divisible by 2 or 4
	in := tinyInputs(g, 6, 12)
	return m, in, sparseSpec(g)
}

// gatherBytes is the head all-gather traffic of one fwd+bwd step summed over
// all ranks: per layer one forward and three backward gathers, each rank
// sending its s×(hidden/P) block to P−1 peers.
func gatherBytes(layers, p, s, hidden int) int64 {
	return int64(4*layers*(p-1)*s*hidden) * 4
}

// TestSeqParallelMatchesSerial pins the tentpole invariant: the in-process
// sequence-parallel plan is bitwise identical to serial execution — logits
// and every parameter gradient — at P ∈ {1, 2, 4}, including when P does not
// divide S and across repeated steps (workspace recycling). Each step moves
// exactly the head all-gather bytes of the schedule.
func TestSeqParallelMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		serial, in, spec := seqparModel(3, 4, NewRuntime(ExecOptions{Workers: 1}))
		sp := NewInProcessSeqParallel(p, ExecOptions{PoolEnabled: true})
		par, _, _ := seqparModel(3, 4, sp)

		for step := 0; step < 3; step++ {
			before := sp.TransportBytes()
			ls := serial.Forward(in, spec, true)
			lp := par.Forward(in, spec, true)
			if !ls.Equal(lp, 0) {
				t.Fatalf("P=%d step %d: sequence-parallel logits differ", p, step)
			}
			dl := tensor.New(ls.Rows, ls.Cols)
			dl.Fill(0.25)
			serial.Backward(dl)
			par.Backward(dl)
			ps, pp := serial.Params(), par.Params()
			sp.SyncGradients(pp)
			for i := range ps {
				if !ps[i].Grad.Equal(pp[i].Grad, 0) {
					t.Fatalf("P=%d step %d: grad %s differs under sequence parallelism", p, step, ps[i].Name)
				}
			}
			if got, want := sp.TransportBytes()-before, gatherBytes(2, p, in.X.Rows, par.Cfg.Hidden); got != want {
				t.Fatalf("P=%d step %d: moved %d bytes, the schedule moves %d", p, step, got, want)
			}
			nn.ZeroGrads(ps)
			nn.ZeroGrads(pp)
			serial.Plan().StepReset()
			sp.StepReset()
		}
		st := sp.AllocStats()
		if st.Gets == 0 || st.PoolHits == 0 {
			t.Fatalf("P=%d: per-rank workspaces not exercised: %+v", p, st)
		}
		if rs := sp.RankAllocStats(); len(rs) != p || rs[p-1].Gets == 0 {
			t.Fatalf("P=%d: want %d exercised rank workspaces, got %+v", p, p, rs)
		}
	}
}

// TestSeqParallelShortSequence covers S < P: every rank still computes its
// heads over the full 3-row sequence.
func TestSeqParallelShortSequence(t *testing.T) {
	serial, _, _ := seqparModel(5, 4, nil)
	sp := NewInProcessSeqParallel(4, ExecOptions{PoolEnabled: true})
	par, _, _ := seqparModel(5, 4, sp)

	g := tinyGraph(7, 3) // S=3 < P=4
	in := tinyInputs(g, 6, 9)
	spec := sparseSpec(g)

	ls := serial.Forward(in, spec, true)
	lp := par.Forward(in, spec, true)
	if !ls.Equal(lp, 0) {
		t.Fatal("short-sequence logits differ")
	}
	dl := tensor.New(ls.Rows, ls.Cols)
	dl.Fill(-0.5)
	serial.Backward(dl)
	par.Backward(dl)
	ps, pp := serial.Params(), par.Params()
	for i := range ps {
		if !ps[i].Grad.Equal(pp[i].Grad, 0) {
			t.Fatalf("short-sequence grad %s differs", ps[i].Name)
		}
	}
}

// TestSeqParallelRejectsIndivisibleHeads: the head distribution requires
// Heads % P == 0 (each rank owns whole heads).
func TestSeqParallelRejectsIndivisibleHeads(t *testing.T) {
	sp := NewInProcessSeqParallel(3, ExecOptions{PoolEnabled: true})
	m, in, spec := seqparModel(2, 4, sp) // 4 heads, 3 ranks
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on heads not divisible by ranks")
		}
	}()
	m.Forward(in, spec, true)
}

// TestSeqParallelSyncGradientsTraffic pins the gradient-sync byte count of
// both hostings. A model hosting its whole world already holds complete
// gradients, so its sync moves nothing. One model per rank (the
// cross-process layout, here over one Mem world) runs the bias-table
// ownership merge: every rank all-gathers each bias-table gradient, P·(P−1)
// tables' worth of bytes, and ends with the serial gradients.
func TestSeqParallelSyncGradientsTraffic(t *testing.T) {
	const p = 4
	serial, in, spec := seqparModel(4, 4, nil)
	ls := serial.Forward(in, spec, true)
	dl := tensor.New(ls.Rows, ls.Cols)
	dl.Fill(0.5)
	serial.Backward(dl)
	ps := serial.Params()

	local := NewInProcessSeqParallel(p, ExecOptions{PoolEnabled: true})
	lm, _, _ := seqparModel(4, 4, local)
	lm.Forward(in, spec, true)
	lm.Backward(dl)
	before := local.TransportBytes()
	local.SyncGradients(lm.Params())
	if got := local.TransportBytes() - before; got != 0 {
		t.Fatalf("in-process sync moved %d bytes, want 0", got)
	}
	for i, pr := range lm.Params() {
		if !ps[i].Grad.Equal(pr.Grad, 0) {
			t.Fatalf("in-process sync changed grad %s", pr.Name)
		}
	}

	mesh := transport.NewMem(p)
	plans := make([]*DistSeqParallel, p)
	models := make([]*GraphTransformer, p)
	for r := range plans {
		var err error
		if plans[r], err = NewDistSeqParallel(mesh[r], 1, ExecOptions{PoolEnabled: true}); err != nil {
			t.Fatal(err)
		}
		models[r], _, _ = seqparModel(4, 4, plans[r])
	}
	var syncBytes [p]int64
	var wg sync.WaitGroup
	for r := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[r].Forward(in, spec, true)
			models[r].Backward(dl)
			before := plans[r].TransportBytes()
			plans[r].SyncGradients(models[r].Params())
			syncBytes[r] = plans[r].TransportBytes() - before
		}()
	}
	wg.Wait()
	var table int64
	for _, b := range serial.Blocks {
		table += int64(len(b.Attn.BiasTable.W.Grad.Data)) * 4
	}
	for r := range plans {
		if want := (p - 1) * table; syncBytes[r] != want {
			t.Fatalf("rank %d sync moved %d bytes, want %d", r, syncBytes[r], want)
		}
		for i, pr := range models[r].Params() {
			if !ps[i].Grad.Equal(pr.Grad, 0) {
				t.Fatalf("rank %d: grad %s differs from serial after sync", r, pr.Name)
			}
		}
	}
}

// TestRunRanksPanicPropagates pins the local-rank launcher: a rank that
// panics while its peers are blocked inside a collective must not deadlock
// them — the launcher tears the transport down, unblocks everyone, and
// returns the primary panic (not a cascading rank-lost victim) as its error.
func TestRunRanksPanicPropagates(t *testing.T) {
	sp := NewInProcessSeqParallel(3, ExecOptions{})
	done := make(chan error, 1)
	go func() {
		done <- sp.runRanks(func(r *seqRank) {
			if r.sp.Index() == 1 {
				panic("boom")
			}
			// The other ranks enter a collective rank 1 never will.
			if _, err := r.sp.AllGather(tensor.New(1, 1)); err != nil {
				panic(err)
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want the primary panic back, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runRanks deadlocked on a panicking rank")
	}
	// The group is poisoned: later collectives fail fast instead of hanging.
	err := sp.runRanks(func(r *seqRank) {
		if _, err := r.sp.AllGather(tensor.New(1, 1)); err != nil {
			panic(err)
		}
	})
	if !transport.IsRankLost(err) {
		t.Fatalf("collectives on a torn-down group must fail with rank loss, got %v", err)
	}
}

package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"torchgt/internal/dist"
	"torchgt/internal/dist/transport"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{
		ID:    "seqpar",
		Title: "Sequence-parallel execution plan: step time + comm volume vs P, against the perf model",
		Run:   runSeqPar,
	})
}

// runSeqPar trains the same node task under the sequence-parallel plan at
// P ∈ {1, 2, 4} and reports, per P: measured optimiser-step time, the
// head all-gather bytes measured per step (checked against the schedule's
// exact 4L·(P−1)·S·H·4), the largest per-rank head-section workspace held
// at the end of a step, the analytic reshard volume the paper's Ulysses
// all-to-all schedule would move instead, and the RTX3090 perf model's
// predicted step time at the same shape. Every run trains
// bitwise-identically (the plan guarantee), so the rows differ only in
// execution, not numerics — the final loss column demonstrates it.
func runSeqPar(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 1024, 4
	if scale == ScaleSmoke {
		nodes, epochs = 256, 2
	}
	ds, err := loadNode("arxiv-sim", nodes, 61)
	if err != nil {
		return err
	}
	mcfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 62)
	shape := dist.ModelShape{Layers: mcfg.Layers, Hidden: mcfg.Hidden, Heads: mcfg.Heads, FFNHidden: mcfg.FFNHidden}
	pm := &dist.PerfModel{HW: dist.RTX3090}

	tb := &table{header: []string{"P", "loss", "step(s)", "gather/step MB", "rank ws MB", "model reshard MB", "model step(s)"}}
	var firstLoss float64
	var serialPairsPerHead int64
	for _, p := range []int{1, 2, 4} {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := train.NewNodeTrainer(train.NodeConfig{
			Method: train.GPSparse, Epochs: epochs, LR: 1e-3, Seed: 63, SeqParallel: p,
		}, mcfg, ds)
		// Sample transport counters at epoch events so the per-step figure
		// covers exactly one optimiser step (the node task runs one per
		// epoch) and excludes the final clean-evaluation forward.
		var marks []int64
		sp := model.AsDistSeqParallel(tr.Model.Plan())
		if sp != nil {
			tr.Loop().Sink = func(e train.Event) {
				if _, ok := e.(train.EpochEvent); ok {
					marks = append(marks, sp.TransportBytes())
				}
			}
		}
		t0 := time.Now()
		res, err := tr.RunCtx(ctx)
		if err != nil {
			return err
		}
		stepSec := time.Since(t0).Seconds() / float64(epochs)

		var gather int64
		switch {
		case len(marks) >= 2:
			gather = marks[len(marks)-1] - marks[len(marks)-2]
		case len(marks) == 1:
			gather = marks[0]
		}
		// One forward and three backward head all-gathers per layer, each
		// rank sending its S×(H/P) block to P−1 peers.
		wantGather := int64(4*shape.Layers*(p-1)*nodes*shape.Hidden) * 4
		if gather != wantGather {
			return fmt.Errorf("seqpar: P=%d moved %d gather bytes per step, the schedule moves %d", p, gather, wantGather)
		}
		rankWS := "-"
		if sp != nil {
			rankWS = fmt.Sprintf("%.2f", float64(rankHeldAfterStep(tr, sp))/(1<<20))
		}
		// The Ulysses schedule: 8 all-to-alls per layer per fwd+bwd step,
		// each moving (S/P)·H·4 bytes per rank with (P−1)/P off-rank.
		var reshard float64
		if p > 1 {
			reshard = float64(p) * 8 * float64(shape.Layers) *
				float64(nodes) / float64(p) * float64(shape.Hidden) * 4 * float64(p-1) / float64(p)
		}
		pairsPerHead := res.TotalPairs / int64(epochs) / int64(shape.Heads) / int64(shape.Layers)
		cost := pm.StepTime(dist.KindSparse, pairsPerHead, nodes, shape, p)

		loss := res.Curve[len(res.Curve)-1].Loss
		if p == 1 {
			firstLoss = loss
			serialPairsPerHead = pairsPerHead
		} else if loss != firstLoss {
			return fmt.Errorf("seqpar: P=%d trajectory diverged from serial (loss %v vs %v)", p, loss, firstLoss)
		}
		tb.addRow(fmt.Sprint(p), fmt.Sprintf("%.6f", loss), f3(stepSec),
			fmt.Sprintf("%.2f", float64(gather)/(1<<20)), rankWS, fmt.Sprintf("%.2f", reshard/(1<<20)),
			f3(cost.Total.Seconds()))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: identical loss at every P (bitwise trajectory); gather/step is the head all-gather")
	fmt.Fprintln(w, "that runs, 4L·(P−1)·S·H·4 bytes — O(S) per rank, above the analytic Ulysses O(S/P) reshard the")
	fmt.Fprintln(w, "model column prices (see DESIGN.md); per-rank head workspace falls ~1/P; model step time falls ~1/P")

	// The same task once more at P=4 — this time as four ranks of the
	// cross-process plan exchanging collectives over real TCP on the
	// loopback interface — against the Loopback profile's prediction
	// (which adds the per-collective wire latency the in-process rows
	// never pay). The trajectory must still be bitwise the serial one.
	const tcpWorld = 4
	stepSec, res, err := runSeqParTCP(ctx, tcpWorld, nodes, epochs)
	if err != nil {
		return err
	}
	loss := res.Curve[len(res.Curve)-1].Loss
	if loss != firstLoss {
		return fmt.Errorf("seqpar: tcp-loopback P=%d trajectory diverged from serial (loss %v vs %v)", tcpWorld, loss, firstLoss)
	}
	cost := (&dist.PerfModel{HW: dist.Loopback}).StepTime(dist.KindSparse, serialPairsPerHead, nodes, shape, tcpWorld)
	fmt.Fprintf(w, "tcp-loopback P=%d: loss %.6f (bitwise-equal to serial), measured step %ss, loopback-model step %ss\n",
		tcpWorld, loss, f3(stepSec), f3(cost.Total.Seconds()))
	return nil
}

// rankHeldAfterStep runs one more training step on a finished trainer and
// reports the largest per-rank head-section workspace held at its end,
// before the step boundary releases it. The step's gradients are discarded.
func rankHeldAfterStep(tr *train.NodeTrainer, sp *model.DistSeqParallel) int64 {
	tr.Step(tr.Cfg.Epochs, 0, 0)
	var held int64
	for _, st := range sp.RankAllocStats() {
		held = max(held, st.HeldBytes)
	}
	sp.StepReset()
	nn.ZeroGrads(tr.Model.Params())
	return held
}

// runSeqParTCP trains the node task as `world` real TCP-loopback ranks — one
// goroutine per rank, each with its own transport endpoint and dataset copy —
// and returns the measured per-step wall time plus rank 0's result.
// Transports close only after every rank has finished: a rank tearing down
// early would discard frames its peers have not yet consumed.
func runSeqParTCP(ctx context.Context, world, nodes, epochs int) (float64, *train.Result, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	addr := l.Addr().String()
	l.Close()

	results := make([]*train.Result, world)
	errs := make([]error, world)
	ts := make([]transport.Transport, world)
	elapsed := make([]time.Duration, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.Join(ctx, addr, r, world, transport.Options{Fingerprint: "bench-seqpar"})
			if err != nil {
				errs[r] = err
				return
			}
			ts[r] = tr
			ds, err := loadNode("arxiv-sim", nodes, 61)
			if err != nil {
				errs[r] = err
				return
			}
			mcfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 62)
			nt := train.NewNodeTrainer(train.NodeConfig{
				Method: train.GPSparse, Epochs: epochs, LR: 1e-3, Seed: 63,
			}, mcfg, ds)
			plan, err := model.NewDistSeqParallel(tr, 1, model.ExecOptions{PoolEnabled: true})
			if err != nil {
				errs[r] = err
				return
			}
			nt.Model.SetPlan(plan)
			// Time the run only, on the far side of a barrier, so the
			// measurement matches the in-process rows: setup (rendezvous,
			// dataset load, preprocessing) stays outside the clock.
			if err := tr.Barrier(); err != nil {
				errs[r] = err
				return
			}
			t0 := time.Now()
			res, err := nt.RunCtx(ctx)
			elapsed[r] = time.Since(t0)
			if err != nil {
				errs[r] = err
				return
			}
			// Drain before teardown: reaching the barrier implies every
			// peer has consumed this rank's final collective frames.
			if err := tr.Barrier(); err != nil {
				errs[r] = err
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	for _, tr := range ts {
		if tr != nil {
			tr.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("seqpar: tcp rank %d: %w", r, err)
		}
	}
	return elapsed[0].Seconds() / float64(epochs), results[0], nil
}

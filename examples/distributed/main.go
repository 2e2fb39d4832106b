// Distributed example: sequence parallelism as an execution plan. The same
// Session API that trains serially trains across 4 in-process ranks when
// WithSeqParallel is set: each rank runs a quarter of the attention heads
// over the full sequence in its own goroutine, and one all-gather over the
// in-process transport reassembles the heads at every attention boundary
// (the head decomposition of the paper's Cluster-aware Graph Parallelism,
// §III-C). The same plan runs across processes over TCP. The training
// trajectory — losses, accuracies, weights — is bitwise identical to the
// serial run, which this example verifies.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"torchgt"
)

func main() {
	const ranks = 4
	ds, err := torchgt.LoadNodeDataset("arxiv-sim", 1024, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 7)

	train := func(opts ...torchgt.SessionOption) *torchgt.Session {
		base := []torchgt.SessionOption{
			torchgt.WithEpochs(8), torchgt.WithLR(2e-3), torchgt.WithSeed(7),
		}
		s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
			append(base, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			log.Fatal(err)
		}
		return s
	}

	fmt.Printf("training on %d ranks, S=%d, %d heads (%d per rank)\n",
		ranks, ds.G.N, cfg.Heads, cfg.Heads/ranks)
	par := train(torchgt.WithSeqParallel(ranks),
		torchgt.WithEventSink(func(e torchgt.Event) {
			if ep, ok := e.(torchgt.EpochEvent); ok {
				fmt.Printf("epoch %2d  loss %.4f  test-acc %.4f\n",
					ep.Epoch, ep.Point.Loss, ep.Point.TestAcc)
			}
		}))
	fmt.Printf("collective traffic: %.1f MB over %d epochs\n",
		float64(par.CommBytes())/(1<<20), par.Epoch())

	// The tentpole guarantee: scaling out changes no numbers.
	serial := train()
	bitwise := true
	ps, pp := serial.Model().Params(), par.Model().Params()
	for i := range ps {
		for j := range ps[i].W.Data {
			if math.Float32bits(ps[i].W.Data[j]) != math.Float32bits(pp[i].W.Data[j]) {
				bitwise = false
			}
		}
	}
	fmt.Println("bitwise equal to serial training:", bitwise)
}

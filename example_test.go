package torchgt_test

import (
	"context"
	"fmt"

	"torchgt"
)

// ExampleNewSession trains through the Session API: functional options, an
// event stream, and a context-driven run.
func ExampleNewSession() {
	ds, err := torchgt.LoadNodeDataset("arxiv-sim", 256, 1)
	if err != nil {
		panic(err)
	}
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
	epochs := 0
	s, err := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
		torchgt.WithEpochs(6), torchgt.WithSeed(2),
		torchgt.WithEventSink(func(e torchgt.Event) {
			if _, ok := e.(torchgt.EpochEvent); ok {
				epochs++
			}
		}))
	if err != nil {
		panic(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("epoch events:", epochs)
	fmt.Println("loss decreased:", res.Curve[len(res.Curve)-1].Loss < res.Curve[0].Loss)
	// Output:
	// epoch events: 6
	// loss decreased: true
}

// ExampleTrainNode trains the full TorchGT pipeline on a tiny synthetic
// graph and reports that training progressed.
func ExampleTrainNode() {
	ds, err := torchgt.LoadNodeDataset("arxiv-sim", 256, 1)
	if err != nil {
		panic(err)
	}
	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
	res, err := torchgt.TrainNode(torchgt.MethodTorchGT, cfg, ds,
		torchgt.TrainOptions{Epochs: 8, Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("epochs:", len(res.Curve))
	fmt.Println("loss decreased:", res.Curve[len(res.Curve)-1].Loss < res.Curve[0].Loss)
	// Output:
	// epochs: 8
	// loss decreased: true
}

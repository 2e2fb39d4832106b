// Package torchgt is the public API of TorchGT-Go, a from-scratch Go
// reproduction of "TorchGT: A Holistic System for Large-Scale Graph
// Transformer Training" (SC 2024). It exposes synthetic dataset loading,
// graph transformer model construction (Graphormer, GT, NodeFormer-lite and
// GNN baselines), single-device and sequence-parallel training (in-process
// ranks or real processes over TCP) with the paper's methods (GP-Raw, GP-Flash, GP-Sparse, TorchGT), and the experiment
// harness that regenerates every table and figure of the paper's evaluation.
//
// Quick start (Session API — cancellable, observable, resumable):
//
//	ds, _ := torchgt.LoadNodeDataset("arxiv-sim", 2048, 1)
//	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
//	s, _ := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
//		torchgt.WithEpochs(20))
//	res, _ := s.Run(context.Background())
//	fmt.Println(res.FinalTestAcc)
//
// The one-call wrappers (TrainNode, TrainGraphLevel, TrainNodeSeq) remain as
// frozen compatibility shims over Session.
package torchgt

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"torchgt/internal/bench"
	"torchgt/internal/data"
	"torchgt/internal/dist"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

// Re-exported core types. These are aliases, so values flow freely between
// the public API and the internal packages.
type (
	// Graph is a CSR graph.
	Graph = graph.Graph
	// NodeDataset is a node-classification dataset over one large graph.
	NodeDataset = graph.NodeDataset
	// GraphDataset is a set of small graphs with graph-level targets.
	GraphDataset = graph.GraphDataset
	// ModelConfig describes a graph transformer instance.
	ModelConfig = model.Config
	// Result summarises a training run (curve, accuracy, timings).
	Result = train.Result
	// Point is one epoch of a convergence curve.
	Point = train.Point
	// Method selects the training system (GP-Raw … TorchGT).
	Method = train.Method
	// HardwareProfile is an analytic testbed model for simulations.
	HardwareProfile = dist.HardwareProfile
)

// Training methods from the paper's evaluation.
const (
	MethodGPRaw       = train.GPRaw
	MethodGPFlash     = train.GPFlash
	MethodGPSparse    = train.GPSparse
	MethodTorchGT     = train.TorchGT
	MethodTorchGTBF16 = train.TorchGTBF16
	MethodNodeFormer  = train.NodeFormerKernel

	// MethodTorchGTBF6 is a misspelling kept for compatibility.
	//
	// Deprecated: use MethodTorchGTBF16.
	MethodTorchGTBF6 = train.TorchGTBF16
)

// ExecOptions tunes the runtime execution engine: head-level parallelism
// (Workers) and workspace pooling (PoolEnabled). The zero value means
// "defaults" — full parallelism, pooling on.
type ExecOptions = model.ExecOptions

// Runtime is the execution engine behind a model's hot paths: per-worker
// scratch workspaces plus the attention-head fan-out scheduler. Attach one
// to a model with GraphTransformer.SetRuntime; reset it at step boundaries
// in custom loops with StepReset.
type Runtime = model.Runtime

// NewRuntime builds an execution engine from opts.
func NewRuntime(opts ExecOptions) *Runtime { return model.NewRuntime(opts) }

// Hardware profiles of the paper's two testbeds.
var (
	RTX3090Cluster = dist.RTX3090
	A100Cluster    = dist.A100
)

// ParseMethod converts a CLI name ("torchgt", "gp-flash", …) to a Method.
func ParseMethod(s string) (Method, error) { return train.ParseMethod(s) }

// NodeDatasetNames lists the available synthetic node-level datasets.
func NodeDatasetNames() []string { return graph.NodeDatasetNames() }

// GraphDatasetNames lists the available synthetic graph-level datasets.
func GraphDatasetNames() []string { return graph.GraphLevelDatasetNames() }

// LoadNodeDataset builds a synthetic node-level dataset; numNodes = 0 keeps
// the preset size (see DESIGN.md for the Table III mapping).
//
// Frozen compatibility wrapper over the provider registry — equivalent to
// OpenDataset("synth://name?nodes=N&seed=S") and bitwise-identical to the
// pre-registry loader for every preset/seed (pinned by test).
func LoadNodeDataset(name string, numNodes int, seed int64) (*NodeDataset, error) {
	sp := DatasetSpec{Scheme: "synth", Name: name, Seed: seed, Params: map[string]string{}}
	if numNodes > 0 {
		sp.Params["nodes"] = strconv.Itoa(numNodes)
	}
	d, err := data.Open(sp)
	if err != nil {
		return nil, err
	}
	if d.Node == nil {
		return nil, fmt.Errorf("torchgt: %q is a graph-level dataset (use LoadGraphDataset)", name)
	}
	return d.Node, nil
}

// LoadGraphDataset builds a synthetic graph-level dataset (zinc-sim,
// molpcba-sim, malnet-sim).
//
// Frozen compatibility wrapper over the provider registry — equivalent to
// OpenDataset("synth://name?seed=S") and bitwise-identical to the
// pre-registry loader for every preset/seed (pinned by test).
func LoadGraphDataset(name string, seed int64) (*GraphDataset, error) {
	d, err := data.Open(DatasetSpec{Scheme: "synth", Name: name, Seed: seed})
	if err != nil {
		return nil, err
	}
	if d.Graph == nil {
		return nil, fmt.Errorf("torchgt: %q is a node-level dataset (use LoadNodeDataset)", name)
	}
	return d.Graph, nil
}

// Model presets (Table IV).
var (
	// GraphormerSlim is GPH-Slim: 4 layers, hidden 64, 8 heads.
	GraphormerSlim = model.GraphormerSlim
	// GraphormerLarge is GPH-Large: 12 layers, hidden 768, 32 heads.
	GraphormerLarge = model.GraphormerLarge
	// GraphormerLargeScaled shrinks GPH-Large by an integer factor for CPU runs.
	GraphormerLargeScaled = model.GraphormerLargeScaled
	// GT is the Dwivedi–Bresson graph transformer: 4 layers, hidden 128.
	GT = model.GTConfig
	// NodeFormerLite is a linear-attention transformer configuration.
	NodeFormerLite = model.NodeFormerLite
)

// TrainOptions tunes a training run; zero values pick sensible defaults.
// Defaults are resolved in one place (the shared train.Config), so this
// struct passes fields through raw.
//
// TrainOptions belongs to the frozen compatibility surface; new code should
// use NewSession with functional options instead.
type TrainOptions struct {
	Epochs    int
	LR        float64
	Seed      int64
	Interval  int     // dual-interleave period (TorchGT)
	ClusterK  int     // cluster dimensionality k (TorchGT)
	Db        int     // sub-block size (TorchGT)
	FixedBeta float64 // pin βthre (requires UseFixedBeta)
	// UseFixedBeta interprets FixedBeta (otherwise the Auto Tuner runs).
	UseFixedBeta bool
	BatchSize    int // graph-level batch
	SeqLen       int // mini-batched node-level sequence length
	// Exec overrides the execution engine (head-parallel workers, workspace
	// pooling); nil keeps the pooled, fully-parallel default.
	Exec *ExecOptions
}

// config is the single TrainOptions→train.Config mapping shared by every
// compatibility wrapper, so the paths cannot drift.
func (o TrainOptions) config(method Method) train.Config {
	return train.Config{
		Method: method, Epochs: o.Epochs, LR: o.LR, Seed: o.Seed,
		Interval: o.Interval, ClusterK: o.ClusterK, Db: o.Db,
		FixedBeta: o.FixedBeta, UseFixedBeta: o.UseFixedBeta,
		BatchSize: o.BatchSize, SeqLen: o.SeqLen, Exec: o.Exec,
	}
}

// session builds the Session behind a compatibility wrapper.
func (o TrainOptions) session(method Method, cfg ModelConfig, task TaskSpec) (*Session, error) {
	return NewSession(method, cfg, task, withConfig(o.config(method)))
}

// TrainNode trains a graph transformer for node classification with the
// given method over the full graph sequence.
//
// Frozen compatibility wrapper over Session — equivalent to
// NewSession(method, cfg, NodeTask(ds), …).Run(context.Background()).
func TrainNode(method Method, cfg ModelConfig, ds *NodeDataset, opts TrainOptions) (*Result, error) {
	s, err := opts.session(method, cfg, NodeTask(ds))
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// TrainGraphLevel trains on a graph-level dataset (classification or
// regression). For regression, Result accuracies hold −MAE; use the returned
// MAE for the headline metric.
//
// Frozen compatibility wrapper over Session (GraphLevelTask).
func TrainGraphLevel(method Method, cfg ModelConfig, ds *GraphDataset, opts TrainOptions) (*Result, float64, error) {
	s, err := opts.session(method, cfg, GraphLevelTask(ds))
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Run(context.Background())
	if err != nil {
		return nil, 0, err
	}
	return res, s.EvalMAE(), nil
}

// TrainNodeSeq trains node classification with mini-batched sequences of
// opts.SeqLen sampled nodes per step (the Fig. 1 regime).
//
// Frozen compatibility wrapper over Session (NodeSeqTask).
func TrainNodeSeq(method Method, cfg ModelConfig, ds *NodeDataset, opts TrainOptions) (*Result, error) {
	s, err := opts.session(method, cfg, NodeSeqTask(ds))
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// SparseNodeSpec builds the topology-induced attention spec for a node
// dataset (used with custom training loops).
func SparseNodeSpec(ds *NodeDataset) *model.AttentionSpec {
	p := sparsePattern(ds)
	return &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p}
}

func sparsePattern(ds *NodeDataset) *Pattern { return patternFrom(ds.G) }

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return bench.IDs() }

// RunExperiment regenerates one paper table/figure, writing its report to w.
// full=false runs a fast smoke-scale variant.
func RunExperiment(id string, w io.Writer, full bool) error {
	return RunExperimentContext(context.Background(), id, w, full)
}

// RunExperimentContext is RunExperiment under a context: experiments train
// through the Session engine, so cancellation stops at the next
// optimiser-step boundary.
func RunExperimentContext(ctx context.Context, id string, w io.Writer, full bool) error {
	e, ok := bench.Get(id)
	if !ok {
		return fmt.Errorf("torchgt: unknown experiment %q (have %v)", id, bench.IDs())
	}
	scale := bench.ScaleSmoke
	if full {
		scale = bench.ScaleFull
	}
	return e.Run(ctx, w, scale)
}

// RunAllExperiments regenerates every registered table and figure.
func RunAllExperiments(w io.Writer, full bool) error {
	return RunAllExperimentsContext(context.Background(), w, full)
}

// RunAllExperimentsContext is RunAllExperiments under a context.
func RunAllExperimentsContext(ctx context.Context, w io.Writer, full bool) error {
	scale := bench.ScaleSmoke
	if full {
		scale = bench.ScaleFull
	}
	return bench.RunAll(ctx, w, scale)
}

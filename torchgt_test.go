package torchgt

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicDatasetLoading(t *testing.T) {
	ds, err := LoadNodeDataset("arxiv-sim", 256, 1)
	if err != nil || ds.G.N != 256 {
		t.Fatalf("node dataset load failed: %v", err)
	}
	if _, err := LoadNodeDataset("nope", 0, 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
	gds, err := LoadGraphDataset("zinc-sim", 1)
	if err != nil || len(gds.Graphs) == 0 {
		t.Fatalf("graph dataset load failed: %v", err)
	}
}

func TestPublicTrainNode(t *testing.T) {
	ds, err := LoadNodeDataset("arxiv-sim", 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 3)
	cfg.Layers = 2
	res, err := TrainNode(MethodTorchGT, cfg, ds, TrainOptions{Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 4 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
	if _, err := TrainNode(MethodTorchGT, cfg, nil, TrainOptions{}); err == nil {
		t.Fatal("nil dataset must error")
	}
}

func TestPublicTrainGraphLevel(t *testing.T) {
	gds, err := LoadGraphDataset("zinc-sim", 5)
	if err != nil {
		t.Fatal(err)
	}
	// shrink for test speed
	gds.Graphs = gds.Graphs[:60]
	gds.Feats = gds.Feats[:60]
	gds.Targets = gds.Targets[:60]
	gds.TrainIdx = filterIdx(gds.TrainIdx, 60)
	gds.ValIdx = filterIdx(gds.ValIdx, 60)
	gds.TestIdx = filterIdx(gds.TestIdx, 60)
	cfg := GraphormerSlim(gds.FeatDim, 1, 6)
	cfg.Layers = 1
	_, mae, err := TrainGraphLevel(MethodGPSparse, cfg, gds, TrainOptions{Epochs: 2, BatchSize: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if mae <= 0 {
		t.Fatalf("regression MAE should be positive, got %v", mae)
	}
}

func filterIdx(idx []int, max int) []int {
	var out []int
	for _, i := range idx {
		if i < max {
			out = append(out, i)
		}
	}
	return out
}

func TestPublicSeqTrainer(t *testing.T) {
	ds, err := LoadNodeDataset("pokec-sim", 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NodeFormerLite(ds.X.Cols, ds.NumClasses, 9)
	cfg.Layers = 2
	res, err := TrainNodeSeq(MethodNodeFormer, cfg, ds, TrainOptions{Epochs: 2, SeqLen: 64, Seed: 10})
	if err != nil || len(res.Curve) != 2 {
		t.Fatalf("seq trainer failed: %v", err)
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("expected ≥15 experiments, got %d", len(ids))
	}
	var buf bytes.Buffer
	if err := RunExperiment("fig9a", &buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "torchgt") {
		t.Fatal("experiment output incomplete")
	}
	if err := RunExperiment("nope", &buf, false); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestParseMethodPublic(t *testing.T) {
	m, err := ParseMethod("torchgt")
	if err != nil || m != MethodTorchGT {
		t.Fatal("parse failed")
	}
}

func TestDatasetNameLists(t *testing.T) {
	if len(NodeDatasetNames()) < 5 || len(GraphDatasetNames()) != 3 {
		t.Fatal("dataset registries incomplete")
	}
}

func TestHardwareProfilesExposed(t *testing.T) {
	if RTX3090Cluster.MemBytes >= A100Cluster.MemBytes {
		t.Fatal("A100 must have more memory than 3090")
	}
}

func TestPublicCheckpointRoundTrip(t *testing.T) {
	ds, err := LoadNodeDataset("arxiv-sim", 128, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 21)
	cfg.Layers = 1
	m := NewGraphTransformer(cfg)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 999 // different init
	m2 := NewGraphTransformer(cfg2)
	if err := LoadModel(path, m2); err != nil {
		t.Fatal(err)
	}
	// identical weights ⇒ identical forward
	in := NodeInputs(ds)
	spec := SparseNodeSpec(ds)
	a := m.Forward(in, spec, false)
	b := m2.Forward(in, spec, false)
	if !a.Equal(b, 0) {
		t.Fatal("loaded model diverges from saved model")
	}
}

func TestPublicDatasetFileRoundTrip(t *testing.T) {
	ds, err := LoadNodeDataset("pokec-sim", 128, 22)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.bin"
	if err := SaveNodeDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadNodeDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.G.NumEdges() != ds.G.NumEdges() || !ds2.X.Equal(ds.X, 0) {
		t.Fatal("dataset file round trip lost data")
	}
}

func TestPublicEgoTrainer(t *testing.T) {
	ds, err := LoadNodeDataset("arxiv-sim", 192, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 24)
	cfg.Layers = 1
	res, err := TrainNodeEgo(cfg, ds, TrainOptions{Epochs: 2, SeqLen: 12, BatchSize: 32, Seed: 25})
	if err != nil || len(res.Curve) != 2 {
		t.Fatalf("ego trainer via facade failed: %v", err)
	}
}

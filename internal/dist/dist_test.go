package dist

// The collective tests pin transport.Group over the in-process Mem
// transport: the contract the sequence-parallel plan and the TCP path share.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/tensor"
)

// memWorld is a p-rank in-process job: one Mem endpoint and one world
// group per rank.
type memWorld struct {
	mesh   []*transport.Mem
	groups []*transport.Group
}

func newMemWorld(p int) *memWorld {
	w := &memWorld{mesh: transport.NewMem(p)}
	for _, t := range w.mesh {
		w.groups = append(w.groups, transport.WorldGroup(t))
	}
	return w
}

// run calls f on every rank's goroutine and fails the test if any rank's
// collective fails — collective tests expect none to.
func (w *memWorld) run(t *testing.T, f func(rank int, g *transport.Group) error) {
	t.Helper()
	errs := make([]error, len(w.groups))
	var wg sync.WaitGroup
	for r, g := range w.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r, g)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// totalBytes reports the payload bytes sent by all ranks.
func (w *memWorld) totalBytes() int64 {
	var n int64
	for _, m := range w.mesh {
		n += m.BytesSent()
	}
	return n
}

func TestAllToAllDeliversByRank(t *testing.T) {
	const p = 3
	w := newMemWorld(p)
	got := make([][]*tensor.Mat, p)
	w.run(t, func(rank int, g *transport.Group) (err error) {
		parts := make([]*tensor.Mat, p)
		for d := 0; d < p; d++ {
			m := tensor.New(1, 2)
			m.Data[0] = float32(rank)
			m.Data[1] = float32(d)
			parts[d] = m
		}
		got[rank], err = g.AllToAll(parts)
		return err
	})
	for dst := 0; dst < p; dst++ {
		for src := 0; src < p; src++ {
			m := got[dst][src]
			if m.Data[0] != float32(src) || m.Data[1] != float32(dst) {
				t.Fatalf("rank %d slot %d got (%v,%v)", dst, src, m.Data[0], m.Data[1])
			}
		}
	}
	// 2 off-rank parts × 3 ranks × 8 bytes
	if w.totalBytes() != int64(p*(p-1)*8) {
		t.Fatalf("bytes=%d", w.totalBytes())
	}
}

// TestCollectivesDegenerateShapes is the table test for degenerate
// collective payloads: zero-row parts (empty tail shards), zero-column
// parts, nil parts, uneven row counts per destination, and single-element
// messages. Every shape must round-trip losslessly, count only real bytes,
// and never panic.
func TestCollectivesDegenerateShapes(t *testing.T) {
	cases := []struct {
		name string
		p    int
		// rows[src][dst] is the row count of the part src sends to dst;
		// -1 sends a nil part.
		rows [][]int
		cols int
	}{
		{name: "zero-row-tail-shard", p: 3, cols: 4, rows: [][]int{
			{2, 2, 2}, {2, 2, 2}, {0, 0, 0}, // rank 2 owns an empty shard
		}},
		{name: "all-zero-rows", p: 2, cols: 3, rows: [][]int{{0, 0}, {0, 0}}},
		{name: "zero-cols", p: 2, cols: 0, rows: [][]int{{3, 3}, {3, 3}}},
		{name: "nil-parts", p: 3, cols: 2, rows: [][]int{
			{1, -1, 1}, {-1, 1, -1}, {1, 1, 1},
		}},
		{name: "uneven-rows", p: 4, cols: 2, rows: [][]int{
			{3, 3, 3, 1}, {3, 3, 3, 1}, {3, 3, 3, 1}, {1, 1, 1, 0}, // S=10, P=4
		}},
		{name: "single-element", p: 2, cols: 1, rows: [][]int{{1, 1}, {1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newMemWorld(tc.p)
			got := make([][]*tensor.Mat, tc.p)
			var wantBytes int64
			for src := 0; src < tc.p; src++ {
				for dst := 0; dst < tc.p; dst++ {
					if src != dst && tc.rows[src][dst] > 0 {
						wantBytes += int64(tc.rows[src][dst]) * int64(tc.cols) * 4
					}
				}
			}
			w.run(t, func(rank int, g *transport.Group) (err error) {
				parts := make([]*tensor.Mat, tc.p)
				for d := 0; d < tc.p; d++ {
					if tc.rows[rank][d] < 0 {
						continue // nil part
					}
					m := tensor.New(tc.rows[rank][d], tc.cols)
					for i := range m.Data {
						m.Data[i] = float32(100*rank + d)
					}
					parts[d] = m
				}
				got[rank], err = g.AllToAll(parts)
				return err
			})
			for dst := 0; dst < tc.p; dst++ {
				for src := 0; src < tc.p; src++ {
					m := got[dst][src]
					if tc.rows[src][dst] < 0 {
						if m != nil {
							t.Fatalf("dst %d src %d: want nil part, got %v", dst, src, m)
						}
						continue
					}
					if m == nil || m.Rows != tc.rows[src][dst] || m.Cols != tc.cols {
						t.Fatalf("dst %d src %d: got %v, want %dx%d", dst, src, m, tc.rows[src][dst], tc.cols)
					}
					for i, v := range m.Data {
						if v != float32(100*src+dst) {
							t.Fatalf("dst %d src %d elem %d: got %v", dst, src, i, v)
						}
					}
				}
			}
			if w.totalBytes() != wantBytes {
				t.Fatalf("bytes=%d want %d", w.totalBytes(), wantBytes)
			}
		})
	}
}

// TestAllGatherDegenerateShapes covers AllGather with empty and nil inputs.
func TestAllGatherDegenerateShapes(t *testing.T) {
	for _, rows := range []int{0, 1, 5} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			const p = 3
			w := newMemWorld(p)
			got := make([][]*tensor.Mat, p)
			w.run(t, func(rank int, g *transport.Group) (err error) {
				m := tensor.New(rows, 2)
				for i := range m.Data {
					m.Data[i] = float32(rank)
				}
				got[rank], err = g.AllGather(m)
				return err
			})
			for dst := 0; dst < p; dst++ {
				for src := 0; src < p; src++ {
					m := got[dst][src]
					if m.Rows != rows || m.Cols != 2 {
						t.Fatalf("dst %d src %d: got %v", dst, src, m)
					}
					for _, v := range m.Data {
						if v != float32(src) {
							t.Fatalf("dst %d src %d: got %v", dst, src, v)
						}
					}
				}
			}
		})
	}
	t.Run("nil", func(t *testing.T) {
		const p = 2
		w := newMemWorld(p)
		got := make([][]*tensor.Mat, p)
		w.run(t, func(rank int, g *transport.Group) (err error) {
			got[rank], err = g.AllGather(nil)
			return err
		})
		for dst := 0; dst < p; dst++ {
			for src := 0; src < p; src++ {
				if got[dst][src] != nil {
					t.Fatalf("dst %d src %d: want nil", dst, src)
				}
			}
		}
		if w.totalBytes() != 0 {
			t.Fatalf("nil gather must move no bytes, got %d", w.totalBytes())
		}
	})
}

func TestAllReduceSums(t *testing.T) {
	const p = 4
	w := newMemWorld(p)
	mats := make([]*tensor.Mat, p)
	for r := range mats {
		m := tensor.New(2, 3)
		m.Fill(float32(r + 1))
		mats[r] = m
	}
	w.run(t, func(rank int, g *transport.Group) error {
		return g.AllReduce([]*tensor.Mat{mats[rank]})
	})
	for r := 0; r < p; r++ {
		for _, v := range mats[r].Data {
			if v != 10 { // 1+2+3+4
				t.Fatalf("rank %d has %v", r, v)
			}
		}
	}
}

// TestAllReduceFixedOrderDeterminism pins the property the determinism
// argument rests on: the reduction folds rank partials in ascending rank
// order on every rank, so all replicas obtain bit-identical (not merely
// approximately equal) sums regardless of goroutine scheduling.
func TestAllReduceFixedOrderDeterminism(t *testing.T) {
	const p = 4
	vals := []float32{1e8, -1e8, 3.25e-3, 7.5e-1} // order-sensitive under fp32
	var want float32
	for _, v := range vals { // ascending rank order, the contract
		want += v
	}
	for trial := 0; trial < 8; trial++ {
		w := newMemWorld(p)
		mats := make([]*tensor.Mat, p)
		for r := range mats {
			m := tensor.New(1, 1)
			m.Data[0] = vals[r]
			mats[r] = m
		}
		w.run(t, func(rank int, g *transport.Group) error {
			return g.AllReduce([]*tensor.Mat{mats[rank]})
		})
		for r := 0; r < p; r++ {
			if mats[r].Data[0] != want {
				t.Fatalf("trial %d rank %d: %v != %v", trial, r, mats[r].Data[0], want)
			}
		}
	}
}

func TestPerfAndMemoryModelShapes(t *testing.T) {
	if RTX3090.MemBytes >= A100.MemBytes {
		t.Fatal("profile memory ordering")
	}
	pm := &PerfModel{HW: A100}
	shape := ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256}
	// dense cost explodes quadratically; cluster-sparse stays near-linear
	s1, s2 := 64<<10, 256<<10
	d1 := pm.StepTime(KindDense, int64(s1)*int64(s1), s1, shape, 8).Total
	d2 := pm.StepTime(KindDense, int64(s2)*int64(s2), s2, shape, 8).Total
	c1 := pm.StepTime(KindClusterSparse, int64(20*s1), s1, shape, 8).Total
	c2 := pm.StepTime(KindClusterSparse, int64(20*s2), s2, shape, 8).Total
	if float64(d2)/float64(d1) < 8 {
		t.Fatalf("dense scaling too flat: %v -> %v", d1, d2)
	}
	if float64(c2)/float64(c1) > 6 {
		t.Fatalf("cluster-sparse scaling too steep: %v -> %v", c1, c2)
	}
	if d1 <= c1 {
		t.Fatal("cluster-sparse must beat dense at paper scale")
	}
	// irregular sparse pays the per-pair penalty
	sp := pm.StepTime(KindSparse, int64(20*s1), s1, shape, 8).Attn
	cs := pm.StepTime(KindClusterSparse, int64(20*s1), s1, shape, 8).Attn
	if sp <= cs {
		t.Fatal("irregular pattern must cost more than reformed")
	}

	mm := &MemoryModel{HW: RTX3090}
	if !mm.WouldOOM(MemDense, 64<<10, int64(20*64<<10), shape, 8) {
		t.Fatal("paper-scale dense must OOM (Table V)")
	}
	raw := mm.MaxSeqLen(MemDense, 20, shape, 1)
	tgt := mm.MaxSeqLen(MemSparse, 20, shape, 1)
	if raw < 4<<10 || raw > 64<<10 {
		t.Fatalf("gp-raw max S out of expected range: %d", raw)
	}
	if tgt < 20*raw {
		t.Fatalf("sparse max S should dwarf dense: %d vs %d", tgt, raw)
	}
	// sequence parallelism scales sparse capacity ~linearly
	tgt8 := mm.MaxSeqLen(MemSparse, 20, shape, 8)
	if float64(tgt8) < 5*float64(tgt) {
		t.Fatalf("sparse capacity should scale with GPUs: %d -> %d", tgt, tgt8)
	}
}

// TestPerfModelNetworkTerm pins the wire-latency component: at short
// sequences the payloads are too small to amortise the per-collective hop
// cost, so the comm term must be bounded below by hops×latency — and a
// zero-latency copy of the profile must predict strictly cheaper steps.
func TestPerfModelNetworkTerm(t *testing.T) {
	shape := ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256}
	pm := &PerfModel{HW: Loopback}
	c := pm.StepTime(KindSparse, 20*256, 256, shape, 4)
	hops := float64(8*shape.Layers + 2)
	floor := time.Duration(hops * Loopback.NetLatencyUs * 1e-6 * float64(time.Second))
	if c.Comm < floor {
		t.Fatalf("comm %v below the latency floor %v", c.Comm, floor)
	}
	flat := Loopback
	flat.NetLatencyUs = 0
	c0 := (&PerfModel{HW: flat}).StepTime(KindSparse, 20*256, 256, shape, 4)
	if c0.Comm >= c.Comm {
		t.Fatalf("zero-latency profile must be cheaper: %v vs %v", c0.Comm, c.Comm)
	}
	if one := pm.StepTime(KindSparse, 20*256, 256, shape, 1); one.Comm != 0 {
		t.Fatalf("single-rank step must pay no comm, got %v", one.Comm)
	}
}

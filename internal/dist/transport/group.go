package transport

import (
	"fmt"

	"torchgt/internal/tensor"
)

// Group runs the collectives over a Transport for a set of member ranks —
// the whole world, or a subgroup (one sequence-parallel group, one
// data-parallel slice). All reduction arithmetic lives here, in fixed
// member order, which is the heart of the cross-process determinism
// argument: the transport only moves bytes, every member folds the same
// values in the same order with the same float32 operations, so every
// member computes bit-identical results, in or out of process.
//
// Collectives are synchronising: every member must enter each one, in the
// same global order. Construct the Group with the member ranks in the same
// order on every member (ascending by convention).
type Group struct {
	t     Transport
	ranks []int
	me    int // index of t.Rank() within ranks

	// async moves the send sweep to a goroutine. TCP needs it — a large
	// frame blocks until the peer drains it, and all members send before
	// any receives — while the in-process mesh's buffered channels absorb
	// the sweep, so it keeps the sends (and their allocations) on the
	// caller's goroutine.
	async bool
}

// NewGroup builds the collective group of the given member ranks, as seen
// from transport t (whose rank must be a member). The slice order fixes the
// reduction order: pass the same order on every member.
func NewGroup(t Transport, ranks []int) (*Group, error) {
	g := &Group{t: t, ranks: ranks, me: -1}
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= t.World() {
			return nil, fmt.Errorf("transport: group member %d outside world of %d", r, t.World())
		}
		if seen[r] {
			return nil, fmt.Errorf("transport: group member %d listed twice", r)
		}
		seen[r] = true
		if r == t.Rank() {
			g.me = i
		}
	}
	if g.me < 0 {
		return nil, fmt.Errorf("transport: rank %d is not a member of group %v", t.Rank(), ranks)
	}
	if _, isTCP := t.(*TCP); isTCP {
		g.async = true
	}
	return g, nil
}

// WorldGroup builds the group of every rank, in ascending order.
func WorldGroup(t Transport) *Group {
	ranks := make([]int, t.World())
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(t, ranks)
	if err != nil {
		panic(err) // unreachable: the world is always a valid group
	}
	return g
}

// Size reports the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Index reports this member's position within the group.
func (g *Group) Index() int { return g.me }

// Transport exposes the underlying transport (traffic accounting, Close).
func (g *Group) Transport() Transport { return g.t }

// AllToAll sends parts[i] to the group's i-th member and returns the parts
// received, indexed by member (own part passed through untouched). Incoming
// matrices are read-only — ownership stays with the sender. nil, zero-row
// and zero-column parts are first-class (empty blocks round-trip with their
// shapes and move no bytes).
func (g *Group) AllToAll(parts []*tensor.Mat) ([]*tensor.Mat, error) {
	n := len(g.ranks)
	if len(parts) != n {
		return nil, fmt.Errorf("transport: AllToAll needs one part per member (%d != %d)", len(parts), n)
	}
	var sendErr chan error
	if g.async {
		sendErr = make(chan error, 1)
		go func() { sendErr <- g.sendSweep(parts) }()
	} else {
		if err := g.sendSweep(parts); err != nil {
			return nil, err
		}
	}
	out := make([]*tensor.Mat, n)
	out[g.me] = parts[g.me]
	var recvErr error
	for i := 0; i < n && recvErr == nil; i++ {
		if i == g.me {
			continue
		}
		out[i], recvErr = g.t.Recv(g.ranks[i])
	}
	if sendErr != nil {
		// Bounded wait: transport sends carry their own deadlines, so a
		// sweep stuck on a dead peer terminates within IOTimeout.
		if err := <-sendErr; recvErr == nil {
			recvErr = err
		}
	}
	if recvErr != nil {
		return nil, recvErr
	}
	return out, nil
}

func (g *Group) sendSweep(parts []*tensor.Mat) error {
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if err := g.t.Send(r, parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// AllGather shares one matrix per member with every member, returned in
// member order.
func (g *Group) AllGather(m *tensor.Mat) ([]*tensor.Mat, error) {
	parts := make([]*tensor.Mat, len(g.ranks))
	for i := range parts {
		parts[i] = m
	}
	return g.AllToAll(parts)
}

// Barrier blocks until every group member has entered it: a nil-payload
// exchange with every member (header-only frames, so the sweep cannot
// deadlock even without the async sender).
func (g *Group) Barrier() error {
	if len(g.ranks) == g.t.World() {
		return g.t.Barrier()
	}
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if err := g.t.Send(r, nil); err != nil {
			return err
		}
	}
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if _, err := g.t.Recv(r); err != nil {
			return err
		}
	}
	return nil
}

// AllReduce sums the members' matrices element-wise, in place, leaving every
// member with the identical total: an all-gather of the flattened vector
// followed by a zero-seeded fold in fixed member order — bitwise-identical
// on every member, in or out of process.
func (g *Group) AllReduce(mats []*tensor.Mat) error {
	n := 0
	for _, m := range mats {
		n += len(m.Data)
	}
	flat := tensor.New(1, n)
	off := 0
	for _, m := range mats {
		copy(flat.Data[off:], m.Data)
		off += len(m.Data)
	}
	gathered, err := g.AllGather(flat)
	if err != nil {
		return err
	}
	sum := tensor.New(1, n)
	for i := range g.ranks {
		tensor.Axpy(1, gathered[i].Data, sum.Data)
	}
	off = 0
	for _, m := range mats {
		copy(m.Data, sum.Data[off:off+len(m.Data)])
		off += len(m.Data)
	}
	return nil
}

// AllReduceMean averages the members' matrices element-wise, in place — the
// data-parallel gradient combine. The fold is a pairwise tree over the
// gathered vectors with no zero seed, then a multiply by 1/R: when the R
// replicas hold bitwise-identical gradients and R is a power of two, the
// round-trip is exact (x+x doubles the exponent, ×1/R halves it back, and
// (-0)+(-0) stays -0), so hybrid DP×SP training stays bitwise-equal to the
// single-replica trajectory. Like every collective here the fold order is
// fixed, so all replicas stay identical even when their gradients differ.
func (g *Group) AllReduceMean(mats []*tensor.Mat) error {
	n := 0
	for _, m := range mats {
		n += len(m.Data)
	}
	flat := tensor.New(1, n)
	off := 0
	for _, m := range mats {
		copy(flat.Data[off:], m.Data)
		off += len(m.Data)
	}
	gathered, err := g.AllGather(flat)
	if err != nil {
		return err
	}
	r := len(g.ranks)
	vals := make([]*tensor.Mat, r)
	copy(vals, gathered)
	owned := make([]bool, r) // gathered buffers are read-only; fold into fresh ones
	for stride := 1; stride < r; stride *= 2 {
		for i := 0; i+stride < r; i += 2 * stride {
			a, b := vals[i], vals[i+stride]
			if !owned[i] {
				dst := tensor.New(1, n)
				for j := range dst.Data {
					dst.Data[j] = a.Data[j] + b.Data[j]
				}
				vals[i], owned[i] = dst, true
				continue
			}
			for j := range a.Data {
				a.Data[j] += b.Data[j]
			}
		}
	}
	scale := float32(1) / float32(r)
	total := vals[0]
	off = 0
	for _, m := range mats {
		for j := range m.Data {
			m.Data[j] = total.Data[off+j] * scale
		}
		off += len(m.Data)
	}
	return nil
}

// AllReduceScalar sums one float across the group (loss reporting), folding
// in fixed member order like AllReduce.
func (g *Group) AllReduceScalar(v float64) (float64, error) {
	m := tensor.New(1, 1)
	m.Data[0] = float32(v)
	gathered, err := g.AllGather(m)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, gm := range gathered {
		s += float64(gm.Data[0])
	}
	return s, nil
}

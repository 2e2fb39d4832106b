package model

import (
	"fmt"
	"sync"

	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// DistSeqParallel is the sequence-parallel execution Plan — the one
// implementation of the paper's Cluster-aware Graph Parallelism (§III-C).
// The job is an R×P hybrid: R data-parallel replicas, each a P-rank
// sequence-parallel group, communicating over transport.Transport. Global
// rank g sits in replica g/P at sequence-parallel index g%P.
//
// A plan hosts the ranks its model trains for:
//
//   - NewDistSeqParallel: one rank of a cross-process job (TCP between real
//     processes, one Mem endpoint per model under tests).
//   - NewInProcessSeqParallel: every rank of a single-replica job, over an
//     in-process transport.NewMem world. This is what WithSeqParallel and
//     train.Config.SeqParallel build.
//
// Layout: row-wise layers (projections, norms, FFN, loss) are
// sequence-decomposable, so every rank runs them replicated over the full
// sequence — bitwise the work its sequence shard plus an all-gather would
// produce, with zero communication. Ranks hosted by one model share them, so
// they run once. Only the head section partitions: each rank runs its own
// Heads/P attention heads over the full sequence on its own workspace, and
// one all-gather per attention boundary reassembles the concatenated outputs
// (and, in backward, dq/dk/dv). Several hosted ranks run concurrently, one
// goroutine each, and the gathered blocks are assembled once. This is the
// Ulysses head decomposition with the sequence dimension kept resident; the
// wire moves exactly the per-head outputs a sequence↔head reshard would
// move on its second hop (DESIGN.md records the deviation).
//
// Determinism: the gathered head blocks land in disjoint columns and are
// assembled with the same zero-initialise-then-add ordering the serial
// engine uses, per-head kernels see bit-identical full-sequence inputs, and
// gradient synchronisation (bias-table ownership merge, data-parallel mean)
// folds in fixed member order — so training under this plan is pinned
// bitwise-equal to the serial trajectory at every P. See DESIGN.md
// "Cross-process execution".
type DistSeqParallel struct {
	// P is the sequence-parallel degree (ranks per replica); R the replica
	// count. P·R is the transport's world size.
	P, R int

	ranks []*seqRank // the ranks this model hosts, ascending

	// dp and world are the hosted rank's cross-replica and world groups;
	// both nil when the model hosts the whole single-replica world.
	dp, world *transport.Group

	shared *tensor.Workspace // serial sections: residuals, concat, dq/dk/dv

	// biasTables maps every bias-table parameter seen in forward to its
	// head count, so SyncGradients can run the ownership merge.
	biasTables map[*nn.Param]int
}

// seqRank is one hosted rank: its transport endpoint, its sequence-parallel
// group, and the workspace its heads draw kernel scratch from.
type seqRank struct {
	t  transport.Transport
	sp *transport.Group
	ws *tensor.Workspace
}

// NewDistSeqParallel builds the hybrid plan for this process from its
// transport: world = replicas × P, with ranks [replica·P, (replica+1)·P)
// forming each sequence-parallel group. opts follows ExecOptions semantics
// (Workers is ignored: a rank's heads run sequentially, as on one GPU).
func NewDistSeqParallel(t transport.Transport, replicas int, opts ExecOptions) (*DistSeqParallel, error) {
	if replicas < 1 {
		replicas = 1
	}
	world := t.World()
	if world%replicas != 0 {
		return nil, fmt.Errorf("model: world size %d not divisible into %d replicas", world, replicas)
	}
	p := world / replicas
	rank := t.Rank()
	replica := rank / p
	spRanks := make([]int, p)
	for i := range spRanks {
		spRanks[i] = replica*p + i
	}
	dpRanks := make([]int, replicas)
	for i := range dpRanks {
		dpRanks[i] = rank%p + i*p
	}
	sp, err := transport.NewGroup(t, spRanks)
	if err != nil {
		return nil, err
	}
	dp, err := transport.NewGroup(t, dpRanks)
	if err != nil {
		return nil, err
	}
	d := &DistSeqParallel{P: p, R: replicas, dp: dp, world: transport.WorldGroup(t),
		ranks: []*seqRank{{t: t, sp: sp}}}
	d.initWorkspaces(opts)
	return d, nil
}

// NewInProcessSeqParallel builds the plan for a single-replica job of p
// ranks, all hosted by this process over transport.NewMem(p). opts follows
// NewDistSeqParallel.
func NewInProcessSeqParallel(p int, opts ExecOptions) *DistSeqParallel {
	if p < 1 {
		p = 1
	}
	d := &DistSeqParallel{P: p, R: 1}
	for _, t := range transport.NewMem(p) {
		d.ranks = append(d.ranks, &seqRank{t: t, sp: transport.WorldGroup(t)})
	}
	d.initWorkspaces(opts)
	return d
}

func (p *DistSeqParallel) initWorkspaces(opts ExecOptions) {
	if !opts.PoolEnabled {
		return
	}
	p.shared = tensor.NewWorkspace()
	for _, r := range p.ranks {
		r.ws = tensor.NewWorkspace()
	}
}

// AsDistSeqParallel returns p as a *DistSeqParallel when that is what it is,
// else nil.
func AsDistSeqParallel(p Plan) *DistSeqParallel {
	if d, ok := p.(*DistSeqParallel); ok {
		return d
	}
	return nil
}

// Ranks implements Plan: the sequence-parallel degree.
func (p *DistSeqParallel) Ranks() int { return p.P }

// TransportBytes reports the payload bytes the hosted ranks have sent.
func (p *DistSeqParallel) TransportBytes() int64 {
	var n int64
	for _, r := range p.ranks {
		n += r.t.BytesSent()
	}
	return n
}

// RankAllocStats reports each hosted rank's head-section workspace
// counters, in rank order (the serial-section workspace is excluded).
func (p *DistSeqParallel) RankAllocStats() []tensor.WorkspaceStats {
	st := make([]tensor.WorkspaceStats, len(p.ranks))
	for i, r := range p.ranks {
		st[i] = r.ws.Stats()
	}
	return st
}

// StepReset implements Plan. Safe only at step boundaries: hosted ranks
// have joined, and SyncGradients ends with a world barrier, so no peer can
// still be reading these buffers.
func (p *DistSeqParallel) StepReset() {
	for _, r := range p.ranks {
		r.ws.Reset()
	}
	p.shared.Reset()
}

// AllocStats implements Plan.
func (p *DistSeqParallel) AllocStats() tensor.WorkspaceStats {
	st := p.shared.Stats()
	for _, s := range p.RankAllocStats() {
		st.Gets += s.Gets
		st.PoolHits += s.PoolHits
		st.Resets += s.Resets
		st.InUse += s.InUse
		st.HeldBytes += s.HeldBytes
	}
	return st
}

func (p *DistSeqParallel) workspace(int) *tensor.Workspace { return p.shared }

func (p *DistSeqParallel) checkHeads(m *MHA) int {
	if m.Heads%p.P != 0 {
		panic(fmt.Sprintf("model: %d heads not divisible by %d sequence-parallel ranks", m.Heads, p.P))
	}
	return m.Heads / p.P
}

// hosts reports whether this model hosts sequence-parallel index idx: a
// plan hosts either its whole group or exactly one rank of it.
func (p *DistSeqParallel) hosts(idx int) bool {
	return len(p.ranks) == p.P || idx == p.ranks[0].sp.Index()
}

func (p *DistSeqParallel) noteBiasTable(m *MHA) {
	if m.BiasTable == nil {
		return
	}
	if p.biasTables == nil {
		p.biasTables = make(map[*nn.Param]int)
	}
	p.biasTables[m.BiasTable.W] = m.Heads
}

// runRanks calls f once per hosted rank. A single rank runs inline on the
// caller's goroutine — the cross-process case, where a collective's panic
// reaches the training loop's rank-loss recovery unchanged. Several ranks
// run one goroutine each, like torchrun spawning a process per device: a
// panicking rank is recovered and aborts its transport, which unblocks every
// peer stuck in a collective, and the panic comes back as the error. When
// one rank's failure cascades — peers observe transport.ErrRankLost once the
// group is poisoned — the error reported is the primary failure, not a
// victim's.
func (p *DistSeqParallel) runRanks(f func(r *seqRank)) error {
	if len(p.ranks) == 1 {
		f(p.ranks[0])
		return nil
	}
	var wg sync.WaitGroup
	panics := make([]any, len(p.ranks))
	for i, r := range p.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics[i] = rec
					// Several hosted ranks only come from the Mem world
					// of NewInProcessSeqParallel.
					r.t.(*transport.Mem).Abort(recoveredErr(i, rec))
				}
			}()
			f(r)
		}()
	}
	wg.Wait()
	var fallback error
	for i, rec := range panics {
		if rec == nil {
			continue
		}
		err := recoveredErr(i, rec)
		if !transport.IsRankLost(err) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

func recoveredErr(rank int, rec any) error {
	if err, ok := rec.(error); ok {
		return err
	}
	return fmt.Errorf("model: sequence-parallel rank %d panicked: %v", rank, rec)
}

// headSection runs f on every hosted rank, all-gathers each column block f
// returns across the rank's sequence-parallel group, and assembles every
// gathered block list once into a zero-initialised s×width matrix (adding
// disjoint blocks: 0+(0+x) ≡ 0+x bitwise, since 0+x is never -0).
func (p *DistSeqParallel) headSection(s, width int, f func(r *seqRank) []*tensor.Mat) []*tensor.Mat {
	var gathered [][]*tensor.Mat
	err := p.runRanks(func(r *seqRank) {
		blocks := f(r)
		gs := make([][]*tensor.Mat, len(blocks))
		for i, b := range blocks {
			g, err := r.sp.AllGather(b)
			if err != nil {
				panic(err)
			}
			gs[i] = g
		}
		if r == p.ranks[0] {
			gathered = gs
		}
	})
	if err != nil {
		panic(err)
	}
	out := make([]*tensor.Mat, len(gathered))
	for i, parts := range gathered {
		out[i] = p.shared.Get(s, width)
		for j, part := range parts {
			addColSlice(out[i], part, j*part.Cols)
		}
	}
	return out
}

// forwardHeads implements Plan: every hosted rank runs its heads over the
// full sequence, and the head blocks are all-gathered and assembled into
// the concatenated output.
func (p *DistSeqParallel) forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat {
	s := q.Rows
	hp := p.checkHeads(m)
	p.noteBiasTable(m)
	concat := p.headSection(s, m.Hidden, func(r *seqRank) []*tensor.Mat {
		ws := r.ws
		headsOut := ws.Get(s, hp*m.Dh)
		for j := 0; j < hp; j++ {
			h := r.sp.Index()*hp + j
			kr := m.newKernel(h, spec, s, ws)
			m.kernels[h] = kr
			oh := kr.Forward(
				colSlice(ws, q, h*m.Dh, m.Dh),
				colSlice(ws, k, h*m.Dh, m.Dh),
				colSlice(ws, v, h*m.Dh, m.Dh))
			addColSlice(headsOut, oh, j*m.Dh)
		}
		return []*tensor.Mat{headsOut}
	})[0]
	// Drop kernels of heads no hosted rank owns: they may be stale from an
	// earlier plan, and backward must only touch local ones.
	for h := range m.kernels {
		if !p.hosts(h / hp) {
			m.kernels[h] = nil
		}
	}
	return concat
}

// backwardHeads implements Plan: the mirrored backward — every hosted rank's
// heads produce their dq/dk/dv column blocks, three all-gathers reassemble
// the full-width gradients, and bias-table gradients accumulate for hosted
// heads only (the ownership merge in SyncGradients completes them). Hosted
// ranks write disjoint bias-table entries: every index is ≡ head (mod
// Heads).
func (p *DistSeqParallel) backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	s := dConcat.Rows
	hp := p.checkHeads(m)
	out := p.headSection(s, m.Hidden, func(r *seqRank) []*tensor.Mat {
		ws := r.ws
		dqh := ws.Get(s, hp*m.Dh)
		dkh := ws.Get(s, hp*m.Dh)
		dvh := ws.Get(s, hp*m.Dh)
		for j := 0; j < hp; j++ {
			h := r.sp.Index()*hp + j
			dqj, dkj, dvj := m.kernels[h].Backward(colSlice(ws, dConcat, h*m.Dh, m.Dh))
			addColSlice(dqh, dqj, j*m.Dh)
			addColSlice(dkh, dkj, j*m.Dh)
			addColSlice(dvh, dvj, j*m.Dh)
			m.AccumBiasGrads(h, m.kernels[h], m.spec)
		}
		return []*tensor.Mat{dqh, dkh, dvh}
	})
	return out[0], out[1], out[2]
}

// SyncGradients runs the gradient-synchronisation collectives that end every
// optimiser step of a cross-process rank:
//
//  1. Bias-table ownership merge within the sequence-parallel group. Every
//     gradient entry (bucket, head) is written by exactly one rank — the
//     head's owner — so each rank copies the owner's value for the entries
//     it does not own. A copy, not a sum: bitwise the serial accumulation,
//     with no zero-addend corner.
//  2. Data-parallel mean across replicas, in fixed member order with a
//     pairwise-tree fold (see transport.Group.AllReduceMean): replicas stay
//     bitwise identical, and identical replicas at power-of-two R
//     round-trip exactly.
//
// A world barrier closes the step so no peer is still reading this rank's
// buffers when the optimiser starts mutating gradients. Row-wise layers
// need no collective at all: their gradients are computed fully replicated.
// A model hosting its whole single-replica world needs none either: every
// head's owner accumulated into the one bias table, so it moves no bytes.
func (p *DistSeqParallel) SyncGradients(params []*nn.Param) {
	if p.world == nil || p.world.Size() <= 1 {
		return
	}
	sp := p.ranks[0].sp
	if sp.Size() > 1 && len(p.biasTables) > 0 {
		me := sp.Index()
		for _, pr := range params {
			heads, ok := p.biasTables[pr]
			if !ok {
				continue
			}
			hp := heads / p.P
			gathered, err := sp.AllGather(pr.Grad)
			if err != nil {
				panic(err)
			}
			// Peers read only the entries this rank owns, and this rank
			// writes only entries it does not own — disjoint even over the
			// in-process zero-copy mesh.
			for e := range pr.Grad.Data {
				if owner := (e % heads) / hp; owner != me {
					pr.Grad.Data[e] = gathered[owner].Data[e]
				}
			}
		}
		// Quiesce the merge before anything mutates gradients again: a
		// peer may still be reading this rank's Grad through the gather
		// (zero-copy in process), and the data-parallel mean below writes
		// every entry back.
		if err := sp.Barrier(); err != nil {
			panic(err)
		}
	}
	if p.dp.Size() > 1 {
		mats := make([]*tensor.Mat, len(params))
		for i, pr := range params {
			mats[i] = pr.Grad
		}
		if err := p.dp.AllReduceMean(mats); err != nil {
			panic(err)
		}
	}
	if err := p.world.Barrier(); err != nil {
		panic(err)
	}
}

package model

import "torchgt/internal/tensor"

// Plan is the execution strategy of a model: how the attention-head section
// of every Block/MHA is scheduled and where its scratch memory lives. The
// model's layers dispatch through the attached Plan, so the parallel
// strategy is pluggable:
//
//   - *Runtime — the single-process engine: heads fan out across worker-slot
//     workspaces (Workers: 1 degrades to fully sequential execution). A nil
//     *Runtime is itself a valid Plan: sequential, heap-allocated.
//   - *DistSeqParallel — sequence parallelism (the paper's Cluster-aware
//     Graph Parallelism, §III-C): each rank runs Heads/P attention heads
//     over the full sequence and one all-gather per attention boundary
//     reassembles them. It hosts every rank of an in-process job (one
//     goroutine each, over a transport.NewMem world) or one rank of a
//     cross-process job.
//
// Every Plan is pinned bitwise-equal to sequential execution; see
// DESIGN.md "Sequence parallelism as an execution plan" for the argument.
// The interface is sealed (unexported methods): plans live in this package,
// next to the layer internals they schedule.
type Plan interface {
	// Ranks reports the sequence-parallel degree (1 for the single-process
	// Runtime).
	Ranks() int
	// StepReset returns all plan-owned workspace buffers to the shared
	// pools. Call at optimiser-step boundaries, after gradients are
	// consumed.
	StepReset()
	// AllocStats aggregates workspace counters across the plan's
	// workspaces.
	AllocStats() tensor.WorkspaceStats

	// workspace hands out the plan's serial-section workspace (slot-based
	// for the head-parallel runtime). nil is valid and means heap
	// allocation.
	workspace(slot int) *tensor.Workspace
	// forwardHeads runs the per-head attention section over projected
	// q/k/v (S×Hidden each) and returns the concatenated head outputs
	// (S×Hidden), stashing per-head kernels on m for backwardHeads.
	forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat
	// backwardHeads propagates dConcat (S×Hidden) through the cached head
	// kernels, accumulates bias-table gradients, and returns dq/dk/dv.
	backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat)
}

// normPlan maps a nil Plan to the nil-*Runtime sequential fallback so layer
// code can always call through the interface.
func normPlan(p Plan) Plan {
	if p == nil {
		return (*Runtime)(nil)
	}
	return p
}

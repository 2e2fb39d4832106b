// Package transport is the communication substrate of sequence-parallel
// training: framed tensor.Mat send/recv between the ranks of one training
// job, with two implementations behind one sealed interface — the
// in-process channel mesh (Mem, which hosts every rank of a WithSeqParallel
// job) and a TCP transport with a versioned wire format and a
// rendezvous/rank-assignment handshake that lets the same bitwise-pinned
// schedule span real OS processes and machines — plus the fixed-order
// Group collectives both share.
//
// Determinism contract: a Transport moves bytes and imposes ordering;
// it never computes. All floating-point reduction lives in Group
// (collective.go) with a fixed rank-ascending fold, so cross-process
// training stays bitwise-equal to the in-process plan. See DESIGN.md
// "Cross-process execution".
package transport

import (
	"errors"
	"fmt"
	"time"

	"torchgt/internal/tensor"
)

// Typed failure modes. Every transport error wraps one of these, so callers
// dispatch with errors.Is regardless of which implementation produced it.
var (
	// ErrRankLost marks a peer that disappeared mid-job: connection drop,
	// process kill, deadline expiry, or explicit Close. Survivors use it to
	// trigger the elastic checkpoint-resume path.
	ErrRankLost = errors.New("transport: rank lost")
	// ErrWireVersion marks a frame from a future (or corrupt) wire format.
	ErrWireVersion = errors.New("transport: unsupported wire version")
	// ErrTruncatedFrame marks a frame cut short mid-header or mid-payload.
	ErrTruncatedFrame = errors.New("transport: truncated frame")
	// ErrWireFormat marks a structurally invalid frame (bad magic, length
	// inconsistent with the declared shape, unexpected kind).
	ErrWireFormat = errors.New("transport: malformed frame")
	// ErrRendezvousTimeout marks a rendezvous that did not assemble the full
	// world before its deadline.
	ErrRendezvousTimeout = errors.New("transport: rendezvous timed out")
	// ErrWorldMismatch marks peers that disagree on the job configuration:
	// world size, fingerprint, or a rank collision.
	ErrWorldMismatch = errors.New("transport: world configuration mismatch")
	// ErrClosed marks use of a transport after Close.
	ErrClosed = errors.New("transport: closed")
)

// RankLostError is the concrete error for a lost peer. It matches
// errors.Is(err, ErrRankLost) and unwraps to the underlying cause (EOF,
// ErrTruncatedFrame, a net error, ...).
type RankLostError struct {
	// Rank is the peer that was lost (-1 when the whole group was torn down
	// rather than one identified peer).
	Rank  int
	Cause error
}

func (e *RankLostError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("transport: group lost: %v", e.Cause)
	}
	return fmt.Sprintf("transport: rank %d lost: %v", e.Rank, e.Cause)
}

func (e *RankLostError) Is(target error) bool { return target == ErrRankLost }

func (e *RankLostError) Unwrap() error { return e.Cause }

// IsRankLost reports whether err marks a lost rank — shorthand for
// errors.Is(err, ErrRankLost).
func IsRankLost(err error) bool { return errors.Is(err, ErrRankLost) }

// Transport is point-to-point communication among the ranks of one job:
// framed tensor.Mat payloads plus a barrier. One Transport value belongs to
// one rank. nil matrices are first-class payloads (they round-trip as nil),
// which the collectives rely on for empty blocks.
//
// Ordering: frames between a (src, dst) pair arrive in send order. Methods
// on one Transport may not be called concurrently with each other except
// Send/Recv on distinct peers (the collectives in Group rely on exactly
// that: one sender goroutine, one receiver goroutine).
//
// The interface is sealed: implementations live in this package, so every
// consumer sees the same typed error and determinism contracts.
type Transport interface {
	// Rank reports this member's rank in [0, World).
	Rank() int
	// World reports the job's total rank count.
	World() int
	// Send delivers m to dst. Ownership stays with the sender; receivers
	// must treat the matrix as read-only, like a registered send buffer.
	Send(dst int, m *tensor.Mat) error
	// Recv blocks for the next matrix from src.
	Recv(src int) (*tensor.Mat, error)
	// Barrier blocks until every rank has entered it.
	Barrier() error
	// BytesSent reports the payload traffic this rank has sent so far.
	BytesSent() int64
	// Close tears the transport down. Peers observe the closure as a lost
	// rank.
	Close() error

	sealed()
}

// Options tunes the TCP transport's handshake and IO behaviour. The zero
// value picks the defaults below.
type Options struct {
	// DialTimeout bounds one connection attempt (default 2s). Dials retry
	// with exponential backoff until RendezvousTimeout, so a slow-starting
	// peer does not kill the job.
	DialTimeout time.Duration
	// RetryBackoff is the initial redial backoff, doubling per attempt up
	// to 1s (default 25ms).
	RetryBackoff time.Duration
	// RendezvousTimeout bounds the whole handshake: coordinator waiting for
	// the world to assemble, peers waiting for their welcome and mesh
	// connections (default 30s).
	RendezvousTimeout time.Duration
	// IOTimeout bounds each post-rendezvous frame read/write (default 30s;
	// a peer stalled past it is reported lost).
	IOTimeout time.Duration
	// Fingerprint is an opaque job-configuration digest agreed at
	// rendezvous: peers whose fingerprint differs from the coordinator's
	// are rejected with ErrWorldMismatch before step 0.
	Fingerprint string
	// Bind is the listen address for the per-peer mesh listener
	// (default "127.0.0.1:0"; use ":0" to accept non-loopback peers).
	Bind string
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.RendezvousTimeout <= 0 {
		o.RendezvousTimeout = 30 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.Bind == "" {
		o.Bind = "127.0.0.1:0"
	}
	return o
}

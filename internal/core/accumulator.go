// Package core implements the paper's primary contribution: the RNA
// (Randomized Non-blocking AllReduce) worker runtime. It provides
//
//   - Accumulator: the comm-thread gradient buffer with the
//     staleness-weighted local reduction of Section 3.3
//     (g' = Σ[t−(k−τ)+1]·g_t / Σ[t−(k−τ)+1]) and bounded-staleness
//     overwrite;
//   - Worker: a goroutine-runtime training worker with decoupled compute
//     and communication threads (cross-iteration execution, Fig. 4),
//     driven by a controller.Controller and a collective partial
//     AllReduce;
//   - BSPWorker: the Horovod-style blocking baseline on the same runtime.
package core

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Accumulator buffers the gradients a worker computes between two partial
// AllReduces. When the worker contributes, the buffered gradients are
// locally reduced with weights linear in their iteration (newer gradients
// weigh more) and the buffer is reset to null — exactly the WriteOp/ReadOp
// behaviour of Section 6.
type Accumulator struct {
	mu      sync.Mutex
	dim     int
	bound   int64
	grads   []tensor.Vector
	iters   []int64
	dropped int64

	// weights is the scratch for Take's local reduction and out its
	// result; free recycles the per-Put gradient copies, so a steady-state
	// worker allocates no dim-sized vector per iteration.
	weights []float64
	out     tensor.Vector
	free    []tensor.Vector
}

// NewAccumulator returns an accumulator for dim-sized gradients that keeps
// at most `bound` iterations of staleness (older entries are overwritten,
// per the bounded-staleness design the paper adopts from SSP). bound < 1 is
// treated as unbounded.
func NewAccumulator(dim int, bound int) (*Accumulator, error) {
	if dim < 1 {
		return nil, fmt.Errorf("core: accumulator dim %d", dim)
	}
	b := int64(bound)
	if bound < 1 {
		b = 1<<62 - 1
	}
	return &Accumulator{dim: dim, bound: b}, nil
}

// Put buffers the gradient computed at iteration iter. The vector is
// copied, so callers may reuse their buffer.
func (a *Accumulator) Put(iter int64, grad tensor.Vector) error {
	if len(grad) != a.dim {
		return tensor.ErrShapeMismatch
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var g tensor.Vector
	if n := len(a.free); n > 0 {
		g = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		copy(g, grad)
	} else {
		g = grad.Clone()
	}
	a.grads = append(a.grads, g)
	a.iters = append(a.iters, iter)
	return nil
}

// Len returns the number of buffered gradients.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.grads)
}

// Dropped returns how many gradients were discarded by the staleness bound.
func (a *Accumulator) Dropped() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Take drains the buffer for a synchronization at iteration current: stale
// entries (current − iter ≥ bound) are dropped, the survivors are combined
// with the paper's weights w_t = t − (current − τ) + 1 where τ is the
// largest surviving gap, and the buffer is reset. ok is false when nothing
// survives — the worker then contributes a null gradient. The returned
// vector is the accumulator's own output buffer: the caller may modify it,
// and it stays valid until the next Take.
func (a *Accumulator) Take(current int64) (grad tensor.Vector, ok bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.grads) == 0 {
		return nil, false, nil
	}
	// Filter by the staleness bound; dropped copies go to the free list.
	keepG := a.grads[:0]
	keepI := a.iters[:0]
	for i, it := range a.iters {
		if current-it >= a.bound && current-it > 0 {
			a.dropped++
			a.free = append(a.free, a.grads[i])
			continue
		}
		keepG = append(keepG, a.grads[i])
		keepI = append(keepI, it)
	}
	for i := len(keepG); i < len(a.grads); i++ {
		a.grads[i] = nil
	}
	a.grads, a.iters = keepG, keepI
	if len(a.grads) == 0 {
		return nil, false, nil
	}
	// τ = largest gap among survivors; weight of entry t is
	// t − (current − τ) + 1, so the oldest survivor weighs 1 and newer
	// entries weigh linearly more.
	var tau int64
	for _, it := range a.iters {
		if g := current - it; g > tau {
			tau = g
		}
	}
	var total float64
	a.weights = a.weights[:0]
	for _, it := range a.iters {
		w := float64(it - (current - tau) + 1)
		a.weights = append(a.weights, w)
		total += w
	}
	// Σ w_i·g_i / Σ w_i, accumulated from zero in buffer order: the
	// operation sequence of tensor.WeightedMean, into the reused buffer.
	if a.out == nil {
		a.out = tensor.New(a.dim)
	} else {
		a.out.Zero()
	}
	for i, g := range a.grads {
		_ = a.out.AddScaled(a.weights[i]/total, g) // lengths match: Put checks them
	}
	// Reset to null: after each AllReduce the inputs are overwritten so
	// outdated gradients are never reused (Section 6). The copies are
	// recycled for future Puts.
	a.free = append(a.free, a.grads...)
	for i := range a.grads {
		a.grads[i] = nil
	}
	a.grads = a.grads[:0]
	a.iters = a.iters[:0]
	return a.out, true, nil
}

// OldestIter returns the iteration of the oldest buffered gradient, and
// false when empty.
func (a *Accumulator) OldestIter() (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.iters) == 0 {
		return 0, false
	}
	min := a.iters[0]
	for _, it := range a.iters[1:] {
		if it < min {
			min = it
		}
	}
	return min, true
}

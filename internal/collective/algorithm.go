package collective

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Algorithm selects an AllReduce schedule.
type Algorithm int

// Supported schedules. AlgoAuto (the zero value) defers to the α–β cost
// model selector; the rest pin a concrete schedule.
const (
	// AlgoAuto lets the calibrated cost model choose per (ranks, size).
	AlgoAuto Algorithm = iota
	// AlgoRing is the pipelined ring: bandwidth-optimal, O(N) latency.
	AlgoRing
	// AlgoHalvingDoubling is recursive halving-doubling: bandwidth-optimal
	// with O(log N) latency, plus a fold-in for non-power-of-two N.
	AlgoHalvingDoubling
	// AlgoTree is binomial-tree reduce + broadcast: fewest messages, full
	// vector per hop — for tiny tensors only.
	AlgoTree
	// AlgoMultiLevel is the topology-aware level-tree schedule (see
	// multilevel.go): groups ring-reduce, leaders recurse, results broadcast
	// back down. AlgoAuto also reaches it when the cost model's level search
	// beats every flat schedule (large rank counts).
	AlgoMultiLevel
)

// String implements fmt.Stringer; the names match the BENCH_collective.json
// rows and the rnabench output.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoRing:
		return "ring"
	case AlgoHalvingDoubling:
		return "halving-doubling"
	case AlgoTree:
		return "tree"
	case AlgoMultiLevel:
		return "multilevel"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a String() name back to the Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "auto":
		return AlgoAuto, nil
	case "ring":
		return AlgoRing, nil
	case "halving-doubling", "hd":
		return AlgoHalvingDoubling, nil
	case "tree":
		return AlgoTree, nil
	case "multilevel", "multi-level", "ml":
		return AlgoMultiLevel, nil
	}
	return 0, fmt.Errorf("collective: unknown algorithm %q", s)
}

// AllReduce reduces v in place across all ranks of m with the schedule the
// calibrated cost model predicts fastest for (m.Size(), len(v)). Selection
// is a pure function of those two values and the shared model, so all SPMD
// ranks take the same branch. This is the entry point the training stack
// uses; pin a schedule with AllReduceWith when benchmarking.
func AllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	return AllReduceWith(m, iter, v, op, AlgoAuto)
}

// AllReduceWith reduces v in place across all ranks of m with the given
// schedule (AlgoAuto defers to the cost-model selector). All ranks must
// pass the same algorithm, iter, op and vector length.
func AllReduceWith(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, algo Algorithm) error {
	return AllReduceOpts(m, iter, v, op, Options{Algorithm: algo})
}

// Options bundles the tunables of one AllReduce call beyond (op, iter).
// The zero value reproduces AllReduce exactly: auto-selected schedule,
// uncompressed fp64 wire, no error feedback.
type Options struct {
	// Algorithm pins a schedule; AlgoAuto defers to the cost-model
	// selector (which prices the Compression dtype's wire volume).
	Algorithm Algorithm
	// Compression is the wire dtype of the distribution phase — the ring
	// allgather, the halving-doubling doubling phase, the tree broadcast.
	// The reduction itself always runs in fp64, and every rank still
	// finishes with bit-identical bytes: elements are quantized exactly
	// once, by the rank that owns them, and re-encoding forwarded grid
	// values is exact (see tensor.RoundTrip). tensor.F64 disables
	// compression.
	Compression tensor.Dtype
	// Residual, when non-nil (it must then have v's length), accumulates
	// the quantization error (pre − post) of the regions THIS rank
	// compressed from exact fp64 — its owned chunks/windows, or the whole
	// vector at the tree root. Adding the residual into the next
	// iteration's local gradient implements error-feedback compression;
	// the residual is distributed across ranks by ownership, matching how
	// the error physically arises.
	Residual tensor.Vector
	// TopK, when positive, replaces the dense schedule with the sparse
	// top-k gradient exchange (see sparse.go): each rank ships only its k
	// largest-magnitude elements as an index+value frame, the union is
	// tree-reduced, and every rank materializes the identical sparse sum.
	// Requires Algorithm == AlgoAuto and Compression == F64 (selected
	// values travel exact; sparsity IS the compression). With Residual set,
	// the dropped mass accumulates there — error feedback, same contract as
	// lossy dense dtypes.
	TopK int
}

// AllReduceOpts reduces v in place across all ranks of m under opts. All
// ranks must pass the same algorithm, compression dtype, iter, op and
// vector length (residuals are rank-local and may differ).
func AllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, opts Options) error {
	if !opts.Compression.Valid() {
		return fmt.Errorf("collective: unknown compression dtype %d", opts.Compression)
	}
	if opts.Residual != nil && len(opts.Residual) != len(v) {
		return fmt.Errorf("collective: residual length %d != vector length %d", len(opts.Residual), len(v))
	}
	if opts.TopK < 0 {
		return fmt.Errorf("collective: negative top-k %d", opts.TopK)
	}
	if opts.TopK > 0 {
		if opts.Algorithm != AlgoAuto {
			return fmt.Errorf("collective: top-k does not compose with a pinned %v schedule", opts.Algorithm)
		}
		if opts.Compression != tensor.F64 {
			return fmt.Errorf("collective: top-k does not compose with %v compression (selected values ship exact)", opts.Compression)
		}
		if transport.MeshCaps(m)&transport.CapSparse != 0 {
			return topKAllReduce(m, iter, v, op, opts.TopK, opts.Residual)
		}
		// Capability downgrade: some rank of the mesh negotiated without
		// sparse frame support, so the sparse exchange cannot run. Fall back
		// to the dense schedule — exact, so any error-feedback residual
		// stays untouched. MeshCaps is the same global AND on every rank,
		// so all SPMD ranks take this branch together.
		opts.TopK = 0
	}
	algo := opts.Algorithm
	if algo == AlgoAuto {
		// The level search runs before the flat selector: when a level tree
		// beats every flat schedule (large rank counts), AlgoAuto takes it.
		// Both checks are pure functions of (n, elems, wire) and the shared
		// model, so SPMD ranks agree on the branch AND the plan.
		if branches := ActiveCostModel().SelectLevels(m.Size(), len(v), opts.Compression); branches != nil {
			plan, err := topology.UniformPlan(m.Size(), branches)
			if err != nil {
				return err
			}
			return multiLevelOpts(m, iter, v, op, opts, plan)
		}
		algo = SelectAlgorithmWire(m.Size(), len(v), opts.Compression)
	}
	switch algo {
	case AlgoRing:
		return ringAllReduce(m, iter, v, op, 0, opts.Compression, opts.Residual)
	case AlgoHalvingDoubling:
		return halvingDoublingAllReduce(m, iter, v, op, opts.Compression, opts.Residual)
	case AlgoTree:
		return treeAllReduce(m, iter, v, op, opts.Compression, opts.Residual)
	case AlgoMultiLevel:
		plan, err := autoPlan(m.Size(), len(v), opts.Compression)
		if err != nil {
			return err
		}
		return multiLevelOpts(m, iter, v, op, opts, plan)
	default:
		return fmt.Errorf("collective: unsupported algorithm %v", algo)
	}
}

// OwnerStep is the owner-update stage of RingAllReduceStep: it updates
// params from the averaged grad, both the same owned span. An element-wise
// optimizer (opt.SGD, opt.Adam) built over that span only is exactly the
// matching slice of a full-vector one.
type OwnerStep func(params, grad tensor.Vector) error

// RingStepEligible reports whether AllReduceOpts(m, iter, v, OpAverage,
// opts) on n ranks and elems elements runs the pipelined fp64 ring — auto
// selection, no residual, no top-k, neither the multi-level nor the inline
// schedule — so RingAllReduceStep can replace it plus a full-vector
// optimizer step bit for bit. A pinned Algorithm is never eligible: pinning
// keeps the replicated update. Every input is SPMD-agreed (the cost model
// is process-wide and shared), so all ranks decide alike.
func RingStepEligible(n, elems int, opts Options) bool {
	if n < 2 || elems < n || opts.Algorithm != AlgoAuto || opts.Compression != tensor.F64 ||
		opts.Residual != nil || opts.TopK != 0 || ringInlineEligible(n, elems) {
		return false
	}
	cm := ActiveCostModel()
	return cm.SelectLevels(n, elems, tensor.F64) == nil && cm.SelectWire(n, elems, tensor.F64) == AlgoRing
}

// RingStepSpan returns the span [lo, hi) of an elems-long vector whose
// optimizer step rank runs inside RingAllReduceStep on n ranks: the chunk
// it owns after the scatter-reduce, (rank+1) mod n.
func RingStepSpan(n, rank, elems int) (lo, hi int) {
	lo, hi, _ = tensor.ChunkBounds(elems, n, mod(rank+1, n))
	return lo, hi
}

// RingAllReduceStep averages grad across all ranks of m with the pipelined
// ring and fuses the optimizer update into it: after the scatter-reduce the
// owner runs step on its RingStepSpan — params[lo:hi] from the averaged
// grad[lo:hi] — and the gather circulates the updated parameters, so every
// rank ends with identical params while stepping only 1/N of them. grad is
// clobbered (only the own span holds the average afterwards). All ranks
// must pass the same iter and vector lengths; gate the call on
// RingStepEligible to keep results bit-identical to AllReduceOpts followed
// by a full-vector step.
func RingAllReduceStep(m transport.Mesh, iter int64, grad, params tensor.Vector, step OwnerStep) error {
	if len(params) != len(grad) {
		return fmt.Errorf("%w: params %d elems, grad %d", tensor.ErrShapeMismatch, len(params), len(grad))
	}
	if m.Size() == 1 {
		return step(params, grad)
	}
	return ringPipelined(m, iter, grad, OpAverage, 0, tensor.F64, nil, params, step)
}

// multiLevelOpts runs the cached multi-level engine for plan, stripping the
// Algorithm pin so the within-level dispatch re-selects per level size.
func multiLevelOpts(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, opts Options, plan *topology.Plan) error {
	ml, err := cachedMultiLevel(m, plan)
	if err != nil {
		return err
	}
	return ml.RunOpts(iter, v, op, Options{Compression: opts.Compression, Residual: opts.Residual})
}

// PartialAllReduce is PartialRingAllReduce with cost-model algorithm
// selection: the partial semantics (null contributions, contributor count)
// ride on any sum AllReduce, so the selector applies unchanged. The
// returned Sum lives in a pooled buffer — call Release when done.
func PartialAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool) (PartialResult, error) {
	return partialAllReduce(m, iter, v, contributes, Options{})
}

// PartialAllReduceOpts is the partial collective under Options — the entry
// point for compressed RNA training. Compression keeps the partial
// semantics: the contributor count rides the reduction as one extra
// element, decoded with round-and-clamp so block quantization noise (the
// count shares its block's scale under I8) cannot corrupt it for any
// realistic count; counts are exact whenever the flag block's scale is ≤ 1.
func PartialAllReduceOpts(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	return partialAllReduce(m, iter, v, contributes, opts)
}

// partialAllReduce implements the partial collective on top of any
// schedule.
func partialAllReduce(m transport.Mesh, iter int64, v tensor.Vector, contributes bool, opts Options) (PartialResult, error) {
	work := tensor.Vector(transport.GetPayload(len(v) + 1))
	if contributes {
		copy(work, v)
		work[len(v)] = 1
	} else {
		work.Zero()
	}
	// The caller's residual matches len(v), but the reduced vector carries
	// the extra flag element; collect error feedback into an extended
	// scratch residual and fold the data part back. The flag element's
	// quantization error is deliberately dropped — feeding it back would
	// distort future counts.
	innerOpts := opts
	var extRes tensor.Vector
	if opts.Residual != nil && opts.Compression != tensor.F64 {
		extRes = tensor.Vector(transport.GetPayload(len(v) + 1))
		extRes.Zero()
		innerOpts.Residual = extRes
	} else {
		innerOpts.Residual = nil
	}
	if err := AllReduceOpts(m, iter, work, OpSum, innerOpts); err != nil {
		transport.PutPayload(work)
		if extRes != nil {
			transport.PutPayload(extRes)
		}
		return PartialResult{}, err
	}
	if extRes != nil {
		_ = opts.Residual.Add(extRes[:len(v)])
		transport.PutPayload(extRes)
	}
	contributors := int(math.Round(work[len(v)]))
	if contributors < 0 {
		contributors = 0
	} else if contributors > m.Size() {
		contributors = m.Size()
	}
	return PartialResult{Sum: work[:len(v)], Contributors: contributors}, nil
}

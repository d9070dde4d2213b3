package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TrainConfig configures one training worker on the goroutine runtime.
type TrainConfig struct {
	// Model is the training objective (shared read-only across workers).
	Model model.Model
	// Batch samples a mini-batch of example indices for one step.
	Batch func(src *rng.Source) []int
	// LR, Momentum and WeightDecay configure the SGD optimizer.
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Iterations is the number of synchronizations to run.
	Iterations int
	// StalenessBound is the bounded-delay window η (≥ 1; default 8):
	// compute may run at most η iterations ahead of the last completed
	// synchronization, and the accumulator drops gradients staler than η.
	StalenessBound int
	// Seed derives this worker's RNG streams.
	Seed int64
	// Compression selects the wire dtype for gradient synchronization
	// (tensor.F64, the zero value, disables it). Lossy dtypes enable
	// error-feedback: each worker keeps the quantization residual of the
	// regions it compressed and folds it into its next contribution, so
	// the compression error is corrected rather than accumulated.
	Compression tensor.Dtype
	// SlowDown optionally injects extra compute latency per iteration
	// for a given rank (tests and examples use it to create stragglers).
	SlowDown func(rank, iter int) time.Duration
	// Overlap enables the reducer pipeline: the backward pass emits
	// gradient buckets (model.LayeredModel) and each bucket's collective
	// launches as soon as its last layer finalizes, overlapping the rest of
	// backprop with communication. All ranks must agree on Overlap,
	// OverlapSerial and FusionBytes. Bit-identical to itself under any
	// scheduling — the bucket plan is a pure function of the model and
	// FusionBytes, and bucket collectives touch disjoint spans.
	Overlap bool
	// OverlapSerial keeps the bucketed data path but waits for each bucket
	// collective before launching the next — the sequential reference the
	// overlap benchmarks and bit-identity tests compare against.
	OverlapSerial bool
	// FusionBytes caps a reduction bucket's size when coalescing emitted
	// gradient spans (0 = collective.DefaultFusionBytes). A threshold at
	// least as large as the gradient collapses the plan to one bucket.
	FusionBytes int
	// Adam selects the Adam optimizer (standard β₁/β₂/ε) instead of
	// momentum-SGD; LR and WeightDecay apply, Momentum is ignored.
	Adam bool
	// ShardedUpdate enables the owner-computes update path: reduce-scatter
	// (always exact fp64) → owned-shard optimizer step → parameter
	// allgather at the Compression wire dtype. Optimizer state and update
	// compute shrink from full-vector-per-rank to one owned span per rank,
	// and the result is bit-identical to the replicated path under uniform
	// partitions (ring fold order, owner-side scale, one quantization per
	// shard). With a lossy wire the owner keeps master weights: the
	// error-feedback residual holds exact-minus-quantized for the owned
	// span, restored before each step. Incompatible with Overlap.
	ShardedUpdate bool
	// ShardWeights optionally skews the ownership spans (len = mesh size;
	// nil = uniform): spans follow tensor.WeightedSizes, so slow ranks can
	// own proportionally smaller shards. Requires ShardedUpdate.
	ShardWeights []float64
	// Algorithm pins the dense collective schedule of the replicated path
	// (zero = AlgoAuto). The sharded path always runs the direct exchange;
	// pinning AlgoRing on the replicated side makes the two paths
	// bit-comparable at any vector size. Under AlgoAuto, a BSP worker whose
	// average resolves to the pipelined fp64 ring fuses the optimizer step
	// into it (collective.RingStepEligible): each rank steps and keeps
	// optimizer state for 1/N of the model, bit-identical to the replicated
	// update. A pinned schedule never fuses, so it always measures the
	// replicated AllReduce-then-step.
	Algorithm collective.Algorithm
}

func (c *TrainConfig) validate() error {
	if c.Model == nil {
		return fmt.Errorf("core: nil model")
	}
	if c.Batch == nil {
		return fmt.Errorf("core: nil batch sampler")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: %d iterations", c.Iterations)
	}
	if !c.Compression.Valid() {
		return fmt.Errorf("core: unknown compression dtype %d", c.Compression)
	}
	if c.ShardedUpdate && c.Overlap {
		return fmt.Errorf("core: sharded update does not compose with the overlap reducer")
	}
	if c.ShardWeights != nil && !c.ShardedUpdate {
		return fmt.Errorf("core: shard weights without sharded update")
	}
	return nil
}

// newOptimizer builds the configured update rule over dim parameters (a
// full vector for the replicated path, one owned span for the sharded one).
func (c *TrainConfig) newOptimizer(dim int) (opt.Optimizer, error) {
	if c.Adam {
		return opt.NewAdam(dim, c.LR, c.WeightDecay)
	}
	return opt.NewSGD(dim, c.LR, c.Momentum, c.WeightDecay)
}

// residual allocates the error-feedback buffer for lossy wires; nil
// disables residual capture in the collective.
func (c *TrainConfig) residual(dim int) tensor.Vector {
	if c.Compression == tensor.F64 {
		return nil
	}
	return tensor.New(dim)
}

func (c *TrainConfig) bound() int {
	if c.StalenessBound < 1 {
		return 8
	}
	return c.StalenessBound
}

// Result reports one worker's training outcome.
type Result struct {
	// Params is the final parameter vector.
	Params tensor.Vector
	// Losses holds the batch loss observed at each local compute step.
	Losses []float64
	// Contributed counts synchronizations this worker fed a real
	// gradient into; NullContribs counts the null contributions.
	Contributed  int
	NullContribs int
	// Elapsed is the worker's wall-clock training time.
	Elapsed time.Duration
	// MaxInFlight is the peak number of concurrently in-flight bucket
	// collectives the overlap reducer reached (0 when Overlap is off).
	MaxInFlight int
	// OptStateBytes is this rank's persistent optimizer-state footprint —
	// full-vector for the replicated path, one owned span under
	// ShardedUpdate or the fused ring step (the N× memory reduction the
	// benchmarks record).
	OptStateBytes int64
}

// RunRNAWorker trains with the RNA protocol: a compute thread produces
// gradients into an Accumulator and announces readiness to the controller;
// a communication thread joins every partial AllReduce the controller
// fires, contributing the staleness-weighted local reduction (or a null
// gradient) and applying the weighted average with the Linear Scaling Rule
// of Algorithm 2. All ranks converge on identical parameters because every
// rank applies the same reduced update.
func RunRNAWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	return runRNAWorker(mesh, ctrl, cfg, nil)
}

// postSyncHook runs on the communication thread after a synchronization's
// update is applied; the hierarchical scheme uses it for the periodic PS
// exchange. It may mutate params under mu.
type postSyncHook func(k int64, mu *sync.Mutex, params tensor.Vector) error

// runRNAWorker is RunRNAWorker with an optional post-synchronization hook.
func runRNAWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig, post postSyncHook) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Overlap {
		return runRNAOverlapped(mesh, ctrl, cfg, post)
	}
	if cfg.ShardedUpdate {
		return runRNASharded(mesh, ctrl, cfg, post)
	}
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	acc, err := NewAccumulator(dim, cfg.bound())
	if err != nil {
		return nil, err
	}
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		return nil, err
	}

	src := rng.New(cfg.Seed)
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params) // same init on all ranks
	batchSrc := src.Split(rank + 1)

	var (
		mu      sync.Mutex // guards params, synced and aborted
		cond    = sync.NewCond(&mu)
		synced  = int64(-1)
		aborted bool
	)
	abort := func() {
		mu.Lock()
		aborted = true
		cond.Broadcast()
		mu.Unlock()
	}
	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	zero := tensor.New(dim)

	var (
		wg         sync.WaitGroup
		computeErr error
		commErr    error
	)

	// Compute thread.
	wg.Add(1)
	go func() {
		defer wg.Done()
		snapshot := tensor.New(dim)
		g := tensor.New(dim)
		for k := int64(0); k < int64(cfg.Iterations); k++ {
			// Bounded staleness: never run more than `bound` ahead
			// of the last completed synchronization.
			mu.Lock()
			for k-synced > int64(cfg.bound()) && !aborted {
				cond.Wait()
			}
			if aborted {
				mu.Unlock()
				return
			}
			copy(snapshot, params)
			mu.Unlock()

			batch := cfg.Batch(batchSrc)
			loss, err := cfg.Model.Gradient(snapshot, g, batch)
			if err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if cfg.SlowDown != nil {
				if d := cfg.SlowDown(rank, int(k)); d > 0 {
					time.Sleep(d)
				}
			}
			res.Losses = append(res.Losses, loss)
			if err := acc.Put(k, g); err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if err := ctrl.Ready(rank, k); err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
		}
	}()

	// Communication thread.
	wg.Add(1)
	go func() {
		defer wg.Done()
		residual := cfg.residual(dim)
		for k := int64(0); k < int64(cfg.Iterations); k++ {
			fired, _ := ctrl.Await(k)
			<-fired

			contrib, ok, err := acc.Take(k)
			if err != nil {
				commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			in := zero
			if ok {
				in = contrib
				res.Contributed++
				// Error feedback: fold the quantization error this rank's
				// owned regions suffered in earlier rounds into the fresh
				// contribution. The partial collective sums contributions
				// before quantizing, so summing the per-rank residuals back
				// in reconstructs the lost mass exactly (in expectation the
				// compressed trajectory tracks the fp64 one).
				if residual != nil {
					_ = contrib.Add(residual)
					residual.Zero()
				}
			} else {
				res.NullContribs++
			}
			pr, err := collective.PartialAllReduceOpts(mesh, k, in, ok, collective.Options{
				Algorithm: cfg.Algorithm, Compression: cfg.Compression, Residual: residual,
			})
			if err != nil {
				commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if pr.Contributors > 0 {
				// ḡ = W·Σg with W = 1/Σw; γ_k scaled by Σw/N.
				pr.Sum.Scale(1 / float64(pr.Contributors))
				scale, err := opt.LinearScale(pr.Contributors, n)
				if err != nil {
					commErr = err
					abort()
					return
				}
				mu.Lock()
				if _, err := optim.Step(params, pr.Sum, scale); err != nil {
					mu.Unlock()
					commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
					abort()
					return
				}
				mu.Unlock()
			}
			pr.Release()
			if post != nil {
				if err := post(k, &mu, params); err != nil {
					commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
					abort()
					return
				}
			}
			// Publish the completed synchronization only after the post
			// hook: compute snapshots taken at k+1 then deterministically
			// include the hook's parameter mutation (the PS broadcast),
			// which is what keeps ordered hierarchical runs bitwise
			// reproducible.
			mu.Lock()
			synced = k
			cond.Broadcast()
			mu.Unlock()
			if rank == 0 {
				ctrl.Forget(k - int64(cfg.bound()) - 2)
			}
		}
	}()

	wg.Wait()
	if computeErr != nil {
		return nil, computeErr
	}
	if commErr != nil {
		return nil, commErr
	}
	res.Params = params
	res.OptStateBytes = optim.StateBytes()
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunBSPWorker trains with the Horovod-style blocking baseline: compute,
// wait at the global barrier, fully AllReduce-average, step. It uses the
// same controller (with the AllReady policy) and collective stack so that
// RNA-vs-BSP comparisons isolate the synchronization discipline.
func RunBSPWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Overlap {
		return runBSPOverlapped(mesh, ctrl, cfg)
	}
	if cfg.ShardedUpdate {
		return runBSPSharded(mesh, ctrl, cfg)
	}
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	residual := cfg.residual(dim)
	syncOpts := collective.Options{Algorithm: cfg.Algorithm, Compression: cfg.Compression, Residual: residual}
	// When the average runs on the pipelined fp64 ring, the owner steps its
	// completed chunk inside the ring and the gather circulates parameters:
	// the optimizer and its state cover that span only, bit-identical to
	// the replicated step (see collective.RingAllReduceStep).
	fused := collective.RingStepEligible(n, dim, syncOpts)
	lo, hi := 0, dim
	if fused {
		lo, hi = collective.RingStepSpan(n, rank, dim)
	}
	optim, err := cfg.newOptimizer(hi - lo)
	if err != nil {
		return nil, err
	}
	step := func(p, g tensor.Vector) error {
		_, err := optim.Step(p, g, 1)
		return err
	}
	src := rng.New(cfg.Seed)
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params) // same init on all ranks
	batchSrc := src.Split(rank + 1)

	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	grad := tensor.New(dim)
	for k := int64(0); k < int64(cfg.Iterations); k++ {
		batch := cfg.Batch(batchSrc)
		loss, err := cfg.Model.Gradient(params, grad, batch)
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		if cfg.SlowDown != nil {
			if d := cfg.SlowDown(rank, int(k)); d > 0 {
				time.Sleep(d)
			}
		}
		res.Losses = append(res.Losses, loss)
		if err := ctrl.Ready(rank, k); err != nil {
			return nil, err
		}
		fired, _ := ctrl.Await(k)
		<-fired
		// Error feedback: the residual holds this rank's owned-region
		// quantization error of the AVERAGED result, so scaling by n before
		// the local add makes the next average regain exactly Σ_r residual_r.
		if residual != nil {
			_ = grad.AddScaled(float64(n), residual)
			residual.Zero()
		}
		if fused {
			err = collective.RingAllReduceStep(mesh, k, grad, params, step)
		} else if err = collective.AllReduceOpts(mesh, k, grad, collective.OpAverage, syncOpts); err == nil {
			err = step(params, grad)
		}
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		res.Contributed++
		if rank == 0 {
			ctrl.Forget(k - 2)
		}
	}
	res.Params = params
	res.OptStateBytes = optim.StateBytes()
	res.Elapsed = time.Since(start)
	return res, nil
}

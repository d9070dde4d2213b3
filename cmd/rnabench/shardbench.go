package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Sharded owner-computes benchmarks: the half-collective sweep recorded in
// BENCH_collective.json, the end-to-end sharded-vs-replicated Adam sweep
// recorded in BENCH_train.json, and the bench-smoke bit-identity slice.

// shardSweepPoint is the bandwidth-bound acceptance point of the composed
// RS+AG gate (matches the RingAllReduce n8 acceptance case).
var shardSweepPoint = struct{ n, dim int }{8, 1 << 18}

const shardSweepReps = 5

// runShardSweep measures ReduceScatter, AllGather, their composition, and
// the fused pipelined ring at the acceptance point, and derives the
// composed-ratio gate: carving the AllReduce into its two halves (what the
// sharded optimizer path runs) must stay within 10% of the fused schedule.
func runShardSweep(rep *collectiveBenchReport) error {
	n, dim := shardSweepPoint.n, shardSweepPoint.dim
	bodies := []struct {
		name string
		body func(m transport.Mesh, iter int64, v tensor.Vector) error
	}{
		{"ReduceScatter", func(m transport.Mesh, iter int64, v tensor.Vector) error {
			return collective.ReduceScatter(m, iter, v, collective.OpAverage, nil)
		}},
		{"AllGather", func(m transport.Mesh, iter int64, v tensor.Vector) error {
			return collective.AllGather(m, iter, v, nil, collective.Options{})
		}},
		{"ReduceScatter+AllGather", func(m transport.Mesh, iter int64, v tensor.Vector) error {
			if err := collective.ReduceScatter(m, iter, v, collective.OpAverage, nil); err != nil {
				return err
			}
			return collective.AllGather(m, iter, v, nil, collective.Options{})
		}},
		{"RingAllReduce/fused", func(m transport.Mesh, iter int64, v tensor.Vector) error {
			return collective.RingAllReduce(m, iter, v, collective.OpAverage)
		}},
	}
	ns := map[string]int64{}
	for _, c := range bodies {
		fmt.Fprintf(os.Stderr, "collective bench: sharded %s n%d dim%d...\n", c.name, n, dim)
		var best collectiveBenchCase
		for r := 0; r < shardSweepReps; r++ {
			res, err := benchRing(c.name, n, dim, c.body)
			if err != nil {
				return err
			}
			if r == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		rep.Sharded = append(rep.Sharded, best)
		ns[c.name] = best.NsPerOp
	}
	if fused := ns["RingAllReduce/fused"]; fused > 0 {
		rep.GateShardedComposedRatio = float64(ns["ReduceScatter+AllGather"]) / float64(fused)
	}
	return nil
}

// shardTrainConfig is the end-to-end sweep's model: an MLP whose parameter
// vector (71178 elements) makes the full-vector Adam step a visible share
// of the round, with a single-example batch so the gradient does not drown
// it — the regime where owner-computes pays: every rank steps dim/8 elements
// instead of all 8 ranks redundantly stepping dim.
func shardTrainConfig(sharded bool, iters int) (core.TrainConfig, error) {
	src := rng.New(31)
	ds, err := data.Blobs(src, 10, 128, 40, 0.3)
	if err != nil {
		return core.TrainConfig{}, err
	}
	m, err := model.NewMLP(ds, 512)
	if err != nil {
		return core.TrainConfig{}, err
	}
	return core.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 1) },
		LR:             0.005,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           42,
		Adam:           true,
		// Pinned, not auto: a pinned schedule never fuses the optimizer
		// step into the ring (core.TrainConfig.Algorithm), so the
		// "replicated" row keeps stepping the full vector on every rank
		// and gate_sharded_adam_speedup keeps comparing sharded against a
		// genuinely replicated update, on the same ring on both paths.
		Algorithm:     collective.AlgoRing,
		ShardedUpdate: sharded,
	}, nil
}

// timeShardTrainRun runs one full 8-rank BSP training over the in-memory
// mesh and returns the wall time and the largest per-rank optimizer state.
func timeShardTrainRun(sharded bool, iters int) (time.Duration, int64, error) {
	const n = 8
	cfg, err := shardTrainConfig(sharded, iters)
	if err != nil {
		return 0, 0, err
	}
	ctrl, err := controller.New(controller.AllReady, n, 0, 1)
	if err != nil {
		return 0, 0, err
	}
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = net.Close() }()
	eps := net.Endpoints()
	results := make([]*core.Result, n)
	errs := make([]error, n)
	done := make(chan int, n)
	start := time.Now()
	for i := range eps {
		i := i
		go func() {
			results[i], errs[i] = core.RunBSPWorker(eps[i], ctrl, cfg)
			done <- i
		}()
	}
	for range eps {
		<-done
	}
	wall := time.Since(start)
	var maxState int64
	for i, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", i, err)
		}
		if results[i].OptStateBytes > maxState {
			maxState = results[i].OptStateBytes
		}
	}
	return wall, maxState, nil
}

const (
	shardTrainIters = 10
	shardTrainReps  = 3
)

// runShardedTrainBench measures replicated vs sharded Adam with real core
// workers (min of reps, after one warmup each) and fills the train report's
// sharded rows and gates.
func runShardedTrainBench(rep *trainBenchReport) error {
	measure := func(name string, sharded bool) (trainBenchCase, int64, error) {
		fmt.Fprintf(os.Stderr, "train bench: %s...\n", name)
		if _, _, err := timeShardTrainRun(sharded, 2); err != nil { // warmup
			return trainBenchCase{}, 0, err
		}
		var best time.Duration
		var state int64
		for r := 0; r < shardTrainReps; r++ {
			wall, s, err := timeShardTrainRun(sharded, shardTrainIters)
			if err != nil {
				return trainBenchCase{}, 0, err
			}
			if r == 0 || wall < best {
				best = wall
			}
			state = s
		}
		return trainBenchCase{Name: name, NsPerOp: best.Nanoseconds() / shardTrainIters}, state, nil
	}
	repl, replState, err := measure("CoreBSP/Adam/replicated", false)
	if err != nil {
		return err
	}
	shard, shardState, err := measure("CoreBSP/Adam/sharded", true)
	if err != nil {
		return err
	}
	rep.Current = append(rep.Current, repl, shard)
	if shard.NsPerOp > 0 {
		rep.GateShardedAdamSpeedup = float64(repl.NsPerOp) / float64(shard.NsPerOp)
	}
	rep.OptStateBytesReplicated = replState
	rep.OptStateBytesShardedMax = shardState
	if shardState > 0 {
		rep.OptStateReduction = float64(replState) / float64(shardState)
	}
	return nil
}

// smokeSharded is the bench-smoke slice of the sharded path: a real 4-rank
// TCP cluster trains with replicated Adam, then with sharded Adam under
// uniform and 3:1-skewed ownership, and every rank's parameters must match
// the replicated run bit for bit.
func smokeSharded() error {
	const n, iters = 4, 8
	src := rng.New(77)
	ds, err := data.Blobs(src, 4, 6, 40, 0.25)
	if err != nil {
		return err
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		return err
	}
	base := core.TrainConfig{
		Model:          m,
		Batch:          func(s *rng.Source) []int { return ds.Batch(s, 16) },
		LR:             0.05,
		Iterations:     iters,
		StalenessBound: 2,
		Seed:           42,
		Adam:           true,
		Algorithm:      collective.AlgoRing,
	}
	run := func(cfg core.TrainConfig) ([]*core.Result, error) {
		ctrl, err := controller.New(controller.AllReady, n, 0, 1)
		if err != nil {
			return nil, err
		}
		meshes, err := transport.NewTCPCluster(n)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, m := range meshes {
				_ = m.Close()
			}
		}()
		results := make([]*core.Result, n)
		errs := make([]error, n)
		done := make(chan int, n)
		for i := range meshes {
			i := i
			go func() {
				results[i], errs[i] = core.RunBSPWorker(meshes[i], ctrl, cfg)
				done <- i
			}()
		}
		for range meshes {
			<-done
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", i, err)
			}
		}
		return results, nil
	}
	repl, err := run(base)
	if err != nil {
		return fmt.Errorf("replicated: %w", err)
	}
	for _, weights := range [][]float64{nil, {3, 1, 1, 1}} {
		cfg := base
		cfg.ShardedUpdate = true
		cfg.ShardWeights = weights
		shard, err := run(cfg)
		if err != nil {
			return fmt.Errorf("sharded (weights %v): %w", weights, err)
		}
		for r := range shard {
			for j := range repl[0].Params {
				if math.Float64bits(shard[r].Params[j]) != math.Float64bits(repl[0].Params[j]) {
					return fmt.Errorf("sharded (weights %v): rank %d diverges from replicated at [%d]", weights, r, j)
				}
			}
		}
	}
	return nil
}

package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// workerKind selects the public worker entry point a real-runtime workload
// drives.
type workerKind int

const (
	kindRNA  workerKind = iota // core.RunRNAWorker, PowerOfChoices q=2
	kindBSP                    // core.RunBSPWorker, AllReady
	kindHier                   // core.RunHierarchicalWorker + ps.Server
)

// realSpec is one workload on the goroutine runtime: a classification task
// (Gaussian blobs + MLP), a cluster shape, an injected delay pattern and a
// fixed number of synchronizations per trial. Every input derives from the
// trial seed.
type realSpec struct {
	kind    workerKind
	tcp     bool
	workers int     // training ranks
	groups  [][]int // hierarchical groups (kindHier); one PS rank follows the workers

	classes, features, perClass int
	spread                      float64
	// labelNoise is the share of examples whose label is redrawn: the
	// training loss then plateaus near the noise entropy, so final_loss
	// measures a converged model rather than how far training got.
	labelNoise    float64
	hidden, batch int
	lr, momentum  float64
	syncs         int

	delay func() hetero.Injector // nil injects nothing

	// lossTarget and lossWindow define time_to_loss_s: the first sync at
	// which the rank-averaged batch loss, averaged over the trailing
	// lossWindow steps, is at or below lossTarget.
	lossTarget float64
	lossWindow int
}

func (s *realSpec) ranks() int {
	if s.kind == kindHier {
		return s.workers + 1
	}
	return s.workers
}

// collectiveRanks is the rank count of the workload's collectives: the
// whole job, or one group of the hierarchical scheme.
func (s *realSpec) collectiveRanks() int {
	if s.kind == kindHier {
		return len(s.groups[0])
	}
	return s.workers
}

// task builds the dataset and model of a trial.
func (s *realSpec) task(seed int64) (*data.Dataset, *model.MLP, error) {
	src := rng.New(seed)
	ds, err := data.Blobs(src, s.classes, s.features, s.perClass, s.spread)
	if err != nil {
		return nil, nil, err
	}
	for i := range ds.Examples {
		if src.Bernoulli(s.labelNoise) {
			ds.Examples[i].Label = src.Choice(s.classes, ds.Examples[i].Label)
		}
	}
	m, err := model.NewMLP(ds, s.hidden)
	return ds, m, err
}

// trainConfig is the workers' configuration for model m on dataset ds,
// with the program's defaults everywhere the workload sets nothing.
func (s *realSpec) trainConfig(ds *data.Dataset, m model.Model, seed int64) core.TrainConfig {
	batch := s.batch
	return core.TrainConfig{
		Model:      m,
		Batch:      func(src *rng.Source) []int { return ds.Batch(src, batch) },
		LR:         s.lr,
		Momentum:   s.momentum,
		Iterations: s.syncs,
		Seed:       seed,
	}
}

// dim is the parameter count of the workload's model.
func (s *realSpec) dim() int {
	return s.hidden*s.features + s.hidden + s.classes*s.hidden + s.classes
}

// delays draws the per-(rank, step) injected delays of a trial up front,
// so SlowDown is a pure table lookup that no scheduling order can change.
func (s *realSpec) delays(seed int64) [][]time.Duration {
	if s.delay == nil {
		return nil
	}
	inj := s.delay()
	src := rng.New(rng.Mix(seed, 991))
	out := make([][]time.Duration, s.workers)
	for r := range out {
		rs := src.Split(r + 1)
		out[r] = make([]time.Duration, s.syncs)
		for k := range out[r] {
			out[r][k] = inj.Delay(rs, r, k)
		}
	}
	return out
}

// runTrial runs one complete job: set-up (data, model, mesh, controllers,
// PS seeding), the timed training phase, then teardown and output checks.
// With t non-nil the model, meshes and callbacks are wrapped and traced.
func (s *realSpec) runTrial(seed int64, t *tracer) (*trialOut, error) {
	out := &trialOut{syncs: s.syncs}
	runtime.GC()
	setupStart := time.Now()
	ds, mlp, err := s.task(seed)
	if err != nil {
		return nil, err
	}
	var m model.Model = mlp
	if t != nil {
		m = wrapModel(mlp, t)
	}
	delays := s.delays(seed)
	cfg := s.trainConfig(ds, m, seed)
	if t != nil {
		inner := cfg.Batch
		cfg.Batch = func(src *rng.Source) []int {
			start := time.Now()
			b := inner(src)
			t.batchNs.Add(time.Since(start).Nanoseconds())
			return b
		}
	}
	// Each rank gets its own config whose SlowDown reads that rank's row of
	// the delay table: the hierarchical worker passes group-local ranks to
	// SlowDown, so the global rank is bound here instead.
	cfgFor := func(r int) core.TrainConfig {
		c := cfg
		if delays != nil {
			c.SlowDown = func(_, iter int) time.Duration {
				d := delays[r][iter]
				if t != nil {
					t.delayNs.Add(int64(d))
				}
				return d
			}
		}
		return c
	}

	connectStart := time.Now()
	meshes, closeFabric, err := newMeshes(s.tcp, s.ranks())
	if err != nil {
		return nil, err
	}
	var closeOnce sync.Once
	closeAll := func() { closeOnce.Do(closeFabric) }
	out.connect = time.Since(connectStart)
	if t != nil {
		for i := range meshes {
			meshes[i] = wrapMesh(meshes[i], t, i < s.workers)
		}
	}
	run, srv, err := s.workersFor(meshes, cfgFor, seed)
	if err != nil {
		closeAll()
		return nil, err
	}
	out.setup = time.Since(setupStart)

	var ms0, ms1 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuTime()
	start := time.Now()
	results := make([]*core.Result, s.workers)
	errs := make([]error, s.workers)
	var wg sync.WaitGroup
	for r := 0; r < s.workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = run(r)
			if errs[r] != nil {
				closeAll() // unblock the peers waiting on the failed rank
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	if t != nil {
		runtime.ReadMemStats(&ms1)
		out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		out.gcCycles = ms1.NumGC - ms0.NumGC
	}
	closeAll()
	if srv != nil {
		if err := srv.Wait(); err != nil {
			out.fail("ps server: %v", err)
		}
	}
	for r, err := range errs {
		if err != nil {
			out.fail("rank %d: %v", r, err)
		}
	}
	if len(out.failures) > 0 {
		return out, nil
	}
	s.check(out, ds, mlp, seed, results, srv)
	return out, nil
}

// workersFor builds the controllers (and, for the hierarchical scheme, the
// seeded PS server on the last rank) and returns the per-rank entry point.
func (s *realSpec) workersFor(meshes []transport.Mesh, cfgFor func(r int) core.TrainConfig, seed int64) (func(r int) (*core.Result, error), *ps.Server, error) {
	switch s.kind {
	case kindRNA, kindBSP:
		policy := controller.PowerOfChoices
		if s.kind == kindBSP {
			policy = controller.AllReady
		}
		ctrl, err := controller.New(policy, s.workers, 2, seed)
		if err != nil {
			return nil, nil, err
		}
		if s.kind == kindBSP {
			return func(r int) (*core.Result, error) { return core.RunBSPWorker(meshes[r], ctrl, cfgFor(r)) }, nil, nil
		}
		return func(r int) (*core.Result, error) { return core.RunRNAWorker(meshes[r], ctrl, cfgFor(r)) }, nil, nil
	}
	init, err := core.InitialParams(cfgFor(0))
	if err != nil {
		return nil, nil, err
	}
	psRank := s.workers
	srv, err := ps.NewServer(meshes[psRank], ps.ServerConfig{Key: core.HierarchicalPSKey, Dim: len(init), Init: init})
	if err != nil {
		return nil, nil, err
	}
	groups := make([]topology.Group, len(s.groups))
	ctrls := make([]*controller.Controller, len(s.groups))
	for gi, members := range s.groups {
		groups[gi] = topology.Group{Members: members}
		if ctrls[gi], err = controller.New(controller.PowerOfChoices, len(members), 2, seed+int64(gi)); err != nil {
			return nil, nil, err
		}
	}
	return func(r int) (*core.Result, error) {
		return core.RunHierarchicalWorker(meshes[r], ctrls, core.HierarchicalConfig{
			Train:   cfgFor(r),
			Groups:  groups,
			PS:      &ps.ClientConfig{Servers: []int{psRank}},
			PSEvery: 1,
		})
	}, srv, nil
}

// check applies the output contract to a finished trial: bitwise-equal
// final parameters wherever the protocol promises them, one contribution
// or null contribution per RNA sync, one PS version per exchange, a final
// loss below the initial loss and a reached loss target.
func (s *realSpec) check(out *trialOut, ds *data.Dataset, mlp *model.MLP, seed int64, results []*core.Result, srv *ps.Server) {
	groups := s.groups
	if s.kind != kindHier {
		all := make([]int, s.workers)
		for r := range all {
			all[r] = r
		}
		groups = [][]int{all}
	}
	for _, g := range groups {
		for _, r := range g[1:] {
			if !bitwiseEqual(results[g[0]].Params, results[r].Params) {
				out.fail("rank %d final parameters differ from rank %d", r, g[0])
			}
		}
	}
	for r, res := range results {
		out.contributed += res.Contributed
		out.nulls += res.NullContribs
		if s.kind != kindBSP && res.Contributed+res.NullContribs != s.syncs {
			out.fail("rank %d: %d contributions + %d null != %d syncs", r, res.Contributed, res.NullContribs, s.syncs)
		}
		if len(res.Losses) != s.syncs {
			out.fail("rank %d: %d loss samples for %d syncs", r, len(res.Losses), s.syncs)
		}
	}
	if srv != nil {
		want := int64(1 + len(s.groups)*s.syncs)
		for _, key := range srv.Store().Keys() {
			if v := srv.Store().Version(key); v != want {
				out.fail("ps chunk %s at version %d, want %d", key, v, want)
			}
		}
		out.exchanges = want - 1
	}
	out.digest = paramsDigest(results[0].Params)

	all := model.All(ds)
	init, err := core.InitialParams(core.TrainConfig{Model: mlp, Seed: seed})
	if err != nil {
		out.fail("initial params: %v", err)
		return
	}
	if out.initLoss, err = mlp.Loss(init, all); err != nil {
		out.fail("initial loss: %v", err)
		return
	}
	if out.finalLoss, err = mlp.Loss(results[0].Params, all); err != nil {
		out.fail("final loss: %v", err)
		return
	}
	if !(out.finalLoss < out.initLoss) {
		out.fail("final loss %.4f not below initial %.4f", out.finalLoss, out.initLoss)
	}
	k := s.syncsToTarget(results)
	if k == 0 {
		out.fail("loss target %.3f not reached in %d syncs", s.lossTarget, s.syncs)
		return
	}
	out.timeToLoss = float64(k) * out.wall.Seconds() / float64(s.syncs)
}

// syncsToTarget returns the 1-based first step at which the rank-averaged
// batch loss, averaged over the trailing window, reaches the target (0 if
// it never does).
func (s *realSpec) syncsToTarget(results []*core.Result) int {
	curve := make([]float64, s.syncs)
	for _, res := range results {
		for i := 0; i < s.syncs && i < len(res.Losses); i++ {
			curve[i] += res.Losses[i] / float64(len(results))
		}
	}
	var sum float64
	for i, l := range curve {
		sum += l
		if i >= s.lossWindow {
			sum -= curve[i-s.lossWindow]
		}
		if i+1 >= s.lossWindow && sum/float64(s.lossWindow) <= s.lossTarget {
			return i + 1
		}
	}
	return 0
}

// layers reduces one traced trial to its per-layer metrics.
func (s *realSpec) layers(o *trialOut, t *tracer) map[string]float64 {
	rankNs := float64(s.workers) * float64(o.wall.Nanoseconds())
	busy := float64(t.gradNs.Load()) / rankNs
	batch := float64(t.batchNs.Load()) / rankNs
	delay := float64(t.delayNs.Load()) / rankNs
	syncs := float64(o.syncs)
	m := map[string]float64{
		"model.grad_ms":             t.gradMs(),
		"model.busy_share":          busy,
		"data.batch_share":          batch,
		"hetero.delay_share":        delay,
		"core.sync_share":           1 - busy - batch - delay,
		"core.contrib_ratio":        float64(o.contributed) / float64(o.contributed+o.nulls),
		"transport.msgs_per_iter":   float64(t.msgs.Load()) / syncs,
		"transport.bytes_per_iter":  float64(t.bytes.Load()) / syncs,
		"transport.recv_wait_share": float64(t.recvNs.Load()) / rankNs,
		"transport.connect_ms":      float64(o.connect) / 1e6,
		"go.alloc_bytes_per_iter":   float64(o.allocBytes) / syncs,
		"go.gc_cycles":              float64(o.gcCycles),
	}
	if n := t.msgs.Load(); n > 0 {
		m["transport.send_us"] = float64(t.sendNs.Load()) / float64(n) / 1e3
	}
	if o.exchanges > 0 {
		m["ps.exchanges_per_s"] = float64(o.exchanges) / o.wall.Seconds()
		m["ps.bytes_per_exchange"] = float64(t.psBytes.Load()) / float64(o.exchanges)
	}
	return m
}

// deterministic reports whether a trial's final parameters are a pure
// function of its seed (BSP without injected delays), so traced and
// untraced trials of one seed must agree bitwise.
func (s *realSpec) deterministic() bool { return s.kind == kindBSP && s.delay == nil }

// singleWorkerGradMs runs the workload's task as a plain 1-rank BSP job
// of the same sync count (no injected delay) and returns its mean Gradient
// time: the uncontended baseline model.contention divides by.
func (s *realSpec) singleWorkerGradMs(seed int64) (float64, error) {
	ds, mlp, err := s.task(seed)
	if err != nil {
		return 0, err
	}
	var t tracer
	cfg := s.trainConfig(ds, wrapModel(mlp, &t), seed)
	net, err := transport.NewLocalNetwork(1)
	if err != nil {
		return 0, err
	}
	defer func() { _ = net.Close() }()
	ctrl, err := controller.New(controller.AllReady, 1, 0, seed)
	if err != nil {
		return 0, err
	}
	if _, err := core.RunBSPWorker(net.Endpoints()[0], ctrl, cfg); err != nil {
		return 0, err
	}
	return t.gradMs(), nil
}

// initialVector returns a deterministic vector of the workload's model
// dimension for replays.
func (s *realSpec) initialVector(seed int64) tensor.Vector {
	v := tensor.New(s.dim())
	src := rng.New(seed)
	for i := range v {
		v[i] = src.Normal(0, 1)
	}
	return v
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// simStrategies are the protocols sim-paper runs to the target loss, with
// the metric-name suffix of each.
var simStrategies = []struct {
	s    trainsim.Strategy
	name string
}{
	{trainsim.Horovod, "horovod"},
	{trainsim.RNA, "rna"},
	{trainsim.RNAHierarchical, "rna_h"},
}

// simSpec is the paper's §8.1 configuration on the virtual-time engine:
// 32 workers, the ResNet50 cost model with step times and communication
// compressed 2x (as the experiment suite does), uniform 0–50 ms delays plus
// transient 1–2 s spikes, trained to a fixed loss.
type simSpec struct {
	workers    int
	lr         float64
	targetLoss float64
	capIters   int
}

// simFeatures and simClasses shape the Gaussian-blob task the simulated
// workers train a logistic model on.
const simFeatures, simClasses = 16, 10

// dim is the logistic model's parameter count.
func (s *simSpec) dim() int { return simClasses*simFeatures + simClasses }

// configs builds the three strategies' configurations for one trial.
func (s *simSpec) configs(seed int64, m func(model.Model) model.Model) ([]trainsim.Config, error) {
	src := rng.New(seed)
	full, err := data.Blobs(src, simClasses, simFeatures, 60, 0.45)
	if err != nil {
		return nil, err
	}
	train, val, err := full.Split(src, 0.2)
	if err != nil {
		return nil, err
	}
	lr, err := model.NewLogistic(train)
	if err != nil {
		return nil, err
	}
	comm := workload.DefaultComm()
	comm.Bandwidth *= 2
	comm.PCIeBandwidth *= 2
	comm.Latency /= 2
	spec := workload.ResNet50()
	cfgs := make([]trainsim.Config, len(simStrategies))
	for i, st := range simStrategies {
		cfgs[i] = trainsim.Config{
			Strategy:    st.s,
			Workers:     s.workers,
			Model:       m(lr),
			Dataset:     train,
			EvalSet:     val,
			BatchSize:   32,
			LR:          s.lr,
			Momentum:    0.9,
			WeightDecay: 1e-4,
			Step:        workload.Balanced{Base: spec.BaseStep / 2, Jitter: 0.05},
			Spec:        spec,
			Comm:        comm,
			Injector: hetero.Stack{
				hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond},
				hetero.TransientSpikes{P: 0.02, Lo: time.Second, Hi: 2 * time.Second},
			},
			MaxIterations: s.capIters,
			TargetLoss:    s.targetLoss,
			EvalEvery:     5,
			Seed:          seed,
		}
	}
	return cfgs, nil
}

// runTrial runs the three strategies to the target loss. With t non-nil
// the model is wrapped and traced.
func (s *simSpec) runTrial(seed int64, t *tracer) (*trialOut, error) {
	out := &trialOut{}
	wrap := func(m model.Model) model.Model { return m }
	if t != nil {
		wrap = func(m model.Model) model.Model { return wrapModel(m, t) }
	}
	runtime.GC()
	setupStart := time.Now()
	cfgs, err := s.configs(seed, wrap)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(setupStart)

	var ms0, ms1 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuTime()
	for _, cfg := range cfgs {
		start := time.Now()
		res, err := trainsim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg.Strategy, err)
		}
		out.wall += time.Since(start)
		out.syncs += res.Iterations
		out.finalLoss += res.FinalLoss / float64(len(cfgs))
		out.results = append(out.results, res)
		if out.digest != "" {
			out.digest += " "
		}
		out.digest += fmt.Sprintf("%s=(%d,%.17g)", simStrategies[len(out.results)-1].name, res.VirtualTime.Nanoseconds(), res.FinalLoss)
	}
	out.cpu = cpuTime() - cpu0
	out.timeToLoss = out.wall.Seconds()
	if t != nil {
		runtime.ReadMemStats(&ms1)
		out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		out.gcCycles = ms1.NumGC - ms0.NumGC
	}
	for _, res := range out.results {
		if !res.ReachedTarget {
			out.fail("%v missed loss %.2f in %d rounds", res.Strategy, s.targetLoss, res.Iterations)
		}
	}
	if hv, rna := out.results[0], out.results[1]; !(rna.VirtualTime < hv.VirtualTime) {
		out.fail("RNA virtual time %v not below Horovod %v", rna.VirtualTime, hv.VirtualTime)
	}
	return out, nil
}

// deterministic: the engine is bit-identical for a seed under any
// scheduling, so traced and untraced trials agree exactly.
func (s *simSpec) deterministic() bool { return true }

func (s *simSpec) layers(o *trialOut, t *tracer) map[string]float64 {
	m := map[string]float64{
		"model.grad_ms":           t.gradMs(),
		"trainsim.model_share":    float64(t.modelCovered()) / float64(o.wall),
		"core.contrib_ratio":      1 - o.results[1].NullContribRate,
		"go.alloc_bytes_per_iter": float64(o.allocBytes) / float64(o.syncs),
		"go.gc_cycles":            float64(o.gcCycles),
	}
	for i, st := range simStrategies {
		m["trainsim.rounds."+st.name] = float64(o.results[i].Iterations)
	}
	return m
}

// singleWorkerRounds is the length of the single-worker baseline run.
const singleWorkerRounds = 500

// singleWorkerGradMs runs a 1-worker Horovod simulation of the same task
// and returns its mean Gradient time, the uncontended baseline of
// model.contention.
func (s *simSpec) singleWorkerGradMs(seed int64) (float64, error) {
	var t tracer
	cfgs, err := s.configs(seed, func(m model.Model) model.Model { return wrapModel(m, &t) })
	if err != nil {
		return 0, err
	}
	cfg := cfgs[0]
	cfg.Workers = 1
	cfg.TargetLoss = 0
	cfg.MaxIterations = singleWorkerRounds
	if _, err := trainsim.Run(cfg); err != nil {
		return 0, err
	}
	return t.gradMs(), nil
}

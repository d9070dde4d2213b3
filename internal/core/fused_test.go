package core

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/transport"
)

// fusedConfig trains a 7-class logistic model whose dimension 7·(F+1) is
// not divisible by n and gives every ring chunk ≥ 16384 elements, so each
// chunk travels as ≥ 2 pipeline segments of the 8192-element minimum.
func fusedConfig(t *testing.T, n, iters int, adam bool) TrainConfig {
	t.Helper()
	const classes = 7
	features := 16384 * n / classes
	for dim := classes * (features + 1); dim%n == 0 || dim/n < 16384; dim = classes * (features + 1) {
		features++
	}
	ds, err := data.Blobs(rng.New(5), classes, features, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogistic(ds)
	if err != nil {
		t.Fatal(err)
	}
	return TrainConfig{
		Model:       m,
		Batch:       func(s *rng.Source) []int { return ds.Batch(s, 2) },
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 1e-3,
		Adam:        adam,
		Iterations:  iters,
		Seed:        9,
	}
}

// ringOnlyCostModel prices the tree and halving-doubling schedules out, so
// auto selection resolves to the ring at every tested rank count (the
// default model prefers the tree at two ranks).
func ringOnlyCostModel() collective.CostModel {
	cm := collective.DefaultCostModel()
	cm.Tree = collective.AlgoCost{AlphaNs: 1e12, BetaNsPerByte: 1e6}
	cm.HalvingDoubling = cm.Tree
	return cm
}

// TestFusedRingUpdateBitIdenticalToReplicated: a BSP worker under AlgoAuto
// steps its owned span inside the ring and gathers parameters; the same run
// with AlgoRing pinned averages the full gradient and steps every parameter.
// The two must agree bit for bit on every rank, for SGD with momentum and
// weight decay and for Adam, at dims not divisible by the rank count, in
// memory and over TCP — and each fused rank keeps optimizer state for its
// owned span only.
func TestFusedRingUpdateBitIdenticalToReplicated(t *testing.T) {
	prev := collective.ActiveCostModel()
	collective.SetCostModel(ringOnlyCostModel())
	defer collective.SetCostModel(prev)
	const iters = 3
	for _, tcp := range []bool{false, true} {
		for _, adam := range []bool{false, true} {
			for _, n := range []int{2, 3, 4, 5, 8} {
				name := fmt.Sprintf("n=%d/adam=%v/tcp=%v", n, adam, tcp)
				cfg := fusedConfig(t, n, iters, adam)
				dim := cfg.Model.Dim()
				if !collective.RingStepEligible(n, dim, collective.Options{}) {
					t.Fatalf("%s: auto schedule is not the fused ring", name)
				}
				run := func(c TrainConfig) []*Result {
					ctrl, err := controller.New(controller.AllReady, n, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					worker := func(m transport.Mesh) (*Result, error) { return RunBSPWorker(m, ctrl, c) }
					if tcp {
						return tcpTrainCluster(t, n, worker)
					}
					return trainCluster(t, n, worker)
				}
				pinned := cfg
				pinned.Algorithm = collective.AlgoRing
				repl := run(pinned)
				fused := run(cfg)
				assertBitIdentical(t, name, repl[0].Params, fused)
				perElem := int64(8)
				if adam {
					perElem = 16
				}
				if want := int64(dim) * perElem; repl[0].OptStateBytes != want {
					t.Errorf("%s: replicated state %d bytes, want %d", name, repl[0].OptStateBytes, want)
				}
				for r, res := range fused {
					lo, hi := collective.RingStepSpan(n, r, dim)
					if want := int64(hi-lo) * perElem; res.OptStateBytes != want {
						t.Errorf("%s: rank %d state %d bytes, want its owned span's %d", name, r, res.OptStateBytes, want)
					}
				}
			}
		}
	}
}

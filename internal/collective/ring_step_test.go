package collective

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// halfStep is an element-wise update for the owner-step tests:
// params −= grad/2.
func halfStep(params, grad tensor.Vector) error {
	return params.AddScaled(-0.5, grad)
}

// TestRingStepMatchesAllReduceThenStep: the fused ring gives every rank the
// parameters a full average followed by a full-vector step would, bit for
// bit, at every rank count (one rank included), uneven dims and every
// pipeline depth — and each rank's step runs exactly once, on its
// RingStepSpan. The automatic depth goes through RingAllReduceStep itself.
func TestRingStepMatchesAllReduceThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for _, dim := range []int{n, 97, 4099, 40001} {
			for _, segs := range []int{0, 1, 3} {
				grads := make([]tensor.Vector, n)
				for r := range grads {
					grads[r] = tensor.New(dim)
					for j := range grads[r] {
						grads[r][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
					}
				}
				init := tensor.New(dim)
				for j := range init {
					init[j] = rng.NormFloat64()
				}
				want := init.Clone()
				if err := halfStep(want, referenceAllReduce(grads, OpAverage)); err != nil {
					t.Fatal(err)
				}
				params := make([]tensor.Vector, n)
				spans := make([][2]int, n)
				for r := range params {
					params[r] = init.Clone()
					spans[r] = [2]int{-1, -1}
				}
				runSPMD(t, n, func(m transport.Mesh) error {
					r := m.Rank()
					step := func(p, g tensor.Vector) error {
						if spans[r][0] >= 0 {
							return errors.New("step ran twice")
						}
						// p is params[r][lo:hi], so cap(p) = dim − lo.
						spans[r] = [2]int{dim - cap(p), dim - cap(p) + len(p)}
						return halfStep(p, g)
					}
					if segs == 0 || n == 1 {
						return RingAllReduceStep(m, 1, grads[r].Clone(), params[r], step)
					}
					return ringPipelined(m, 1, grads[r].Clone(), OpAverage, segs, tensor.F64, nil, params[r], step)
				})
				for r := 0; r < n; r++ {
					lo, hi := RingStepSpan(n, r, dim)
					if spans[r] != [2]int{lo, hi} {
						t.Fatalf("n=%d dim=%d segs=%d rank %d: stepped %v, want [%d %d]", n, dim, segs, r, spans[r], lo, hi)
					}
					for j := range want {
						if math.Float64bits(params[r][j]) != math.Float64bits(want[j]) {
							t.Fatalf("n=%d dim=%d segs=%d rank %d elem %d: got %v, want %v", n, dim, segs, r, j, params[r][j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestRingStepEligible pins the predicate to the schedule AllReduceOpts
// actually runs: the dense-bsp-mem shape (4 ranks, 140296 elements) fuses
// under the default cost model; any pinned schedule, lossy wire, residual,
// top-k, single rank, inline-sized vector or non-ring auto choice does not.
func TestRingStepEligible(t *testing.T) {
	prev := ActiveCostModel()
	SetCostModel(DefaultCostModel())
	defer SetCostModel(prev)
	const n, dim = 4, 140296
	if !RingStepEligible(n, dim, Options{}) {
		t.Fatalf("(%d, %d) under the default model is not eligible", n, dim)
	}
	for name, c := range map[string]struct {
		n, elems int
		opts     Options
	}{
		"pinned ring":  {n, dim, Options{Algorithm: AlgoRing}},
		"pinned hd":    {n, dim, Options{Algorithm: AlgoHalvingDoubling}},
		"lossy wire":   {n, dim, Options{Compression: tensor.F16}},
		"residual":     {n, dim, Options{Residual: tensor.New(dim)}},
		"top-k":        {n, dim, Options{TopK: 10}},
		"single rank":  {1, dim, Options{}},
		"inline size":  {n, 512, Options{}},
		"auto to tree": {2, dim, Options{}},
	} {
		if RingStepEligible(c.n, c.elems, c.opts) {
			t.Errorf("%s: eligible", name)
		}
	}
	if SelectAlgorithm(2, dim) == AlgoRing {
		t.Error("the default model now picks the ring at 2 ranks; the tree case above tests nothing")
	}
}

// TestRingStepFailureNeverReturnsNil is the fail-stop contract of the fused
// ring: a dead peer, or an owner step that fails on one rank, ends with an
// error on every rank — never nil with half-gathered parameters.
func TestRingStepFailureNeverReturnsNil(t *testing.T) {
	const dim = 4096
	errStep := errors.New("step failed")
	for _, segments := range []int{0, 1, 3} {
		// Dead peer: rank 2 never runs, as in TestRingDeadPeerNeverReturnsNil.
		{
			const n, victim = 3, 2
			net, err := transport.NewLocalNetwork(n)
			if err != nil {
				t.Fatal(err)
			}
			eps := net.Endpoints()
			run := func(rank int) chan error {
				done := make(chan error, 1)
				go func() {
					g := tensor.New(dim)
					g.Fill(float64(rank + 1))
					done <- ringPipelined(deadPeerMesh{eps[rank], victim}, 0, g, OpAverage, segments, tensor.F64, nil, tensor.New(dim), halfStep)
				}()
				return done
			}
			done0, done1 := run(0), run(1)
			if err := <-done0; err == nil {
				t.Fatalf("segments %d: rank 0 returned nil after its receive failed", segments)
			}
			_ = net.Close()
			if err := <-done1; err == nil {
				t.Fatalf("segments %d: rank 1 returned nil with a dead peer in the ring", segments)
			}
		}
		// Failing step: every rank is live, rank 1's owner step errors.
		for _, n := range []int{2, 4} {
			const bad = 1
			net, err := transport.NewLocalNetwork(n)
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]chan error, n)
			for r, m := range net.Endpoints() {
				r, m := r, m
				errs[r] = make(chan error, 1)
				go func() {
					step := halfStep
					if r == bad {
						step = func(tensor.Vector, tensor.Vector) error { return errStep }
					}
					g := tensor.New(dim)
					g.Fill(float64(r + 1))
					errs[r] <- ringPipelined(m, 0, g, OpAverage, segments, tensor.F64, nil, tensor.New(dim), step)
				}()
			}
			if err := <-errs[bad]; !errors.Is(err, errStep) {
				t.Fatalf("segments %d n=%d: failing rank returned %v, want the step error", segments, n, err)
			}
			// The failed rank has left the ring; tearing the fabric down
			// must surface as an error on every peer still in it.
			_ = net.Close()
			for r := range errs {
				if r == bad {
					continue
				}
				if err := <-errs[r]; err == nil {
					t.Fatalf("segments %d n=%d: rank %d returned nil although rank %d's step failed", segments, n, r, bad)
				}
			}
		}
	}
}

package collective_test

import (
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// runRanks runs one collective invocation per rank concurrently and fails the
// benchmark on any error.
func runRanks(b *testing.B, eps []transport.Mesh, fn func(m transport.Mesh) error) {
	b.Helper()
	done := make(chan error, len(eps))
	for _, m := range eps {
		m := m
		go func() { done <- fn(m) }()
	}
	for range eps {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingAllReduce sweeps vector size (1K–1M) and rank count (4/8/16)
// on the in-memory mesh. The 256K/n8 case is the acceptance gate tracked in
// BENCH_collective.json.
func BenchmarkRingAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, dim := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 20} {
			b.Run(fmt.Sprintf("n%d/dim%d", n, dim), func(b *testing.B) {
				net, err := transport.NewLocalNetwork(n)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = net.Close() }()
				vecs := make([]tensor.Vector, n)
				for i := range vecs {
					vecs[i] = tensor.New(dim)
				}
				eps := net.Endpoints()
				b.SetBytes(int64(dim * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, eps, func(m transport.Mesh) error {
						return collective.RingAllReduce(m, int64(i), vecs[m.Rank()], collective.OpAverage)
					})
				}
			})
		}
	}
}

// BenchmarkRingAllReduceStep measures one BSP synchronization at the
// dense-bsp-mem shape (4 ranks, 140296 parameters, momentum SGD, in
// memory): "replicated" averages with AllReduceOpts and steps the full
// vector on every rank; "fused" runs RingAllReduceStep, where each owner
// steps its chunk inside the ring and the gather circulates parameters.
// Rank goroutines persist across iterations, so the steady state reports
// the collectives' own allocations: 0 allocs/op.
func BenchmarkRingAllReduceStep(b *testing.B) {
	const n, dim = 4, 140296
	for _, fused := range []bool{false, true} {
		name := "replicated"
		if fused {
			name = "fused"
		}
		b.Run(fmt.Sprintf("%s/n%d/dim%d", name, n, dim), func(b *testing.B) {
			net, err := transport.NewLocalNetwork(n)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = net.Close() }()
			eps := net.Endpoints()
			start := make([]chan int64, n)
			done := make(chan error, n)
			for r, m := range eps {
				lo, hi := 0, dim
				if fused {
					lo, hi = collective.RingStepSpan(n, r, dim)
				}
				sgd, err := opt.NewSGD(hi-lo, 0.005, 0.9, 0)
				if err != nil {
					b.Fatal(err)
				}
				step := func(p, g tensor.Vector) error {
					_, err := sgd.Step(p, g, 1)
					return err
				}
				grad, params := tensor.New(dim), tensor.New(dim)
				start[r] = make(chan int64)
				go func(m transport.Mesh, iters chan int64) {
					for it := range iters {
						grad.Fill(1e-3)
						if fused {
							done <- collective.RingAllReduceStep(m, it, grad, params, step)
							continue
						}
						err := collective.AllReduceOpts(m, it, grad, collective.OpAverage, collective.Options{})
						if err == nil {
							err = step(params, grad)
						}
						done <- err
					}
				}(m, start[r])
			}
			defer func() {
				for _, c := range start {
					close(c)
				}
			}()
			syncAll := func(it int64) {
				for _, c := range start {
					c <- it
				}
				for range eps {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
			syncAll(-1) // warm the payload pool and the sender free list
			b.SetBytes(int64(dim * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syncAll(int64(i))
			}
		})
	}
}

// BenchmarkPartialRingAllReduce measures the paper's partial collective
// (half the ranks contribute nulls) across the same sweep.
func BenchmarkPartialRingAllReduce(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, dim := range []int{1 << 10, 1 << 18} {
			b.Run(fmt.Sprintf("n%d/dim%d", n, dim), func(b *testing.B) {
				net, err := transport.NewLocalNetwork(n)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = net.Close() }()
				vecs := make([]tensor.Vector, n)
				for i := range vecs {
					vecs[i] = tensor.New(dim)
				}
				eps := net.Endpoints()
				b.SetBytes(int64(dim * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, eps, func(m transport.Mesh) error {
						r := m.Rank()
						pr, err := collective.PartialRingAllReduce(m, int64(i), vecs[r], r%2 == 0)
						if err == nil {
							pr.Release()
						}
						return err
					})
				}
			})
		}
	}
}

// BenchmarkAllReduceAlgorithms sweeps every schedule (plus the auto
// selector) over the crossover-relevant sizes. The same grid backs the
// per-algorithm rows and crossover table in BENCH_collective.json via
// `rnabench -collective`.
func BenchmarkAllReduceAlgorithms(b *testing.B) {
	algos := []collective.Algorithm{
		collective.AlgoRing, collective.AlgoHalvingDoubling,
		collective.AlgoTree, collective.AlgoAuto,
	}
	for _, algo := range algos {
		for _, n := range []int{4, 8, 16} {
			for _, dim := range []int{1 << 10, 1 << 12, 1 << 16, 1 << 18} {
				algo := algo
				b.Run(fmt.Sprintf("%s/n%d/dim%d", algo, n, dim), func(b *testing.B) {
					net, err := transport.NewLocalNetwork(n)
					if err != nil {
						b.Fatal(err)
					}
					defer func() { _ = net.Close() }()
					vecs := make([]tensor.Vector, n)
					for i := range vecs {
						vecs[i] = tensor.New(dim)
					}
					eps := net.Endpoints()
					b.SetBytes(int64(dim * 8))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runRanks(b, eps, func(m transport.Mesh) error {
							return collective.AllReduceWith(m, int64(i), vecs[m.Rank()], collective.OpAverage, algo)
						})
					}
				})
			}
		}
	}
}

// BenchmarkHierarchicalAllReduce measures the two-level schedule with four
// groups of equal size against the flat ring at the same scale.
func BenchmarkHierarchicalAllReduce(b *testing.B) {
	for _, n := range []int{8, 16} {
		for _, dim := range []int{1 << 12, 1 << 18} {
			b.Run(fmt.Sprintf("n%d/dim%d", n, dim), func(b *testing.B) {
				groups := make([][]int, 4)
				for r := 0; r < n; r++ {
					groups[r%4] = append(groups[r%4], r)
				}
				net, err := transport.NewLocalNetwork(n)
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = net.Close() }()
				vecs := make([]tensor.Vector, n)
				for i := range vecs {
					vecs[i] = tensor.New(dim)
				}
				eps := net.Endpoints()
				b.SetBytes(int64(dim * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runRanks(b, eps, func(m transport.Mesh) error {
						return collective.HierarchicalAllReduce(m, int64(i), vecs[m.Rank()], collective.OpAverage, groups)
					})
				}
			})
		}
	}
}

// BenchmarkMultiLevelCacheDelta measures the SubMesh-cache win: the same
// level tree executed through a pre-built engine (one construction per
// endpoint, the HierarchicalAllReduce/AlgoAuto steady state) versus
// rebuilding the engine — every per-level SubMesh — on each call, which is
// what the two-level path used to do per iteration.
func BenchmarkMultiLevelCacheDelta(b *testing.B) {
	const n, dim = 16, 1 << 12
	plan, err := topology.UniformPlan(n, []int{4})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rebuild bool) {
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = net.Close() }()
		vecs := make([]tensor.Vector, n)
		for i := range vecs {
			vecs[i] = tensor.New(dim)
		}
		eps := net.Endpoints()
		engines := make([]*collective.MultiLevel, n)
		for i, m := range eps {
			if engines[i], err = collective.NewMultiLevel(m, plan); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(dim * 8))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runRanks(b, eps, func(m transport.Mesh) error {
				ml := engines[m.Rank()]
				if rebuild {
					var err error
					if ml, err = collective.NewMultiLevel(m, plan); err != nil {
						return err
					}
				}
				return ml.Run(int64(i), vecs[m.Rank()], collective.OpAverage)
			})
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, false) })
	b.Run("rebuild", func(b *testing.B) { run(b, true) })
}

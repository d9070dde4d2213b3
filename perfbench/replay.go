package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/opt"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Layers that core calls internally (collective, opt, the PS client) are
// measured by replaying their public calls at a workload's shape on a fresh
// mesh of the same kind. warmup calls are run first and not recorded.
const warmup = 10

// newMeshes builds a fresh n-rank fabric of the given kind and a function
// that closes it.
func newMeshes(tcp bool, n int) ([]transport.Mesh, func(), error) {
	if !tcp {
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			return nil, nil, err
		}
		return net.Endpoints(), func() { _ = net.Close() }, nil
	}
	cl, err := transport.NewTCPCluster(n)
	if err != nil {
		return nil, nil, err
	}
	meshes := make([]transport.Mesh, n)
	for i, m := range cl {
		meshes[i] = m
	}
	return meshes, func() {
		for _, m := range cl {
			_ = m.Close()
		}
	}, nil
}

// replayCollective times reps calls of the auto-selected dense collective
// on rank 0: AllReduceOpts averaging a full vector, or, with partial set,
// PartialAllReduceOpts with the last rank contributing a null gradient.
func replayCollective(tcp bool, n int, base tensor.Vector, reps int, partial bool) ([]time.Duration, error) {
	meshes, closeAll, err := newMeshes(tcp, n)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	times := make([]time.Duration, 0, reps)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := base.Clone()
			for k := 0; k < warmup+reps; k++ {
				start := time.Now()
				if partial {
					pr, err := collective.PartialAllReduceOpts(meshes[r], int64(k), v, r != n-1, collective.Options{})
					if err != nil {
						errs[r] = err
						return
					}
					if pr.Contributors != n-1 {
						errs[r] = fmt.Errorf("partial allreduce: %d contributors, want %d", pr.Contributors, n-1)
						return
					}
					pr.Release()
				} else if err := collective.AllReduceOpts(meshes[r], int64(k), v, collective.OpAverage, collective.Options{}); err != nil {
					errs[r] = err
					return
				}
				if r == 0 && k >= warmup {
					times = append(times, time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay rank %d: %w", r, err)
		}
	}
	return times, nil
}

// replayOptStep times reps momentum-SGD steps over the full vector.
func replayOptStep(base tensor.Vector, reps int) ([]time.Duration, error) {
	o, err := opt.NewSGD(len(base), 0.05, 0.9, 0)
	if err != nil {
		return nil, err
	}
	params := base.Clone()
	grad := base.Clone()
	grad.Scale(1e-3)
	times := make([]time.Duration, 0, reps)
	for k := 0; k < warmup+reps; k++ {
		start := time.Now()
		if _, err := o.Step(params, grad, 1); err != nil {
			return nil, err
		}
		if k >= warmup {
			times = append(times, time.Since(start))
		}
	}
	return times, nil
}

// replayPushPull times reps Client.PushPull exchanges of a full-model
// delta against a ps.Server on a fresh 2-rank TCP mesh (f64 wire, default
// chunking), the exchange a hierarchical group leader performs.
func replayPushPull(base tensor.Vector, reps int) ([]time.Duration, error) {
	meshes, closeAll, err := newMeshes(true, 2)
	if err != nil {
		return nil, err
	}
	const key = "replay"
	srv, err := ps.NewServer(meshes[1], ps.ServerConfig{Key: key, Dim: len(base), Init: base})
	if err != nil {
		closeAll()
		return nil, err
	}
	times, err := func() ([]time.Duration, error) {
		c, err := ps.NewClient(meshes[0], ps.ClientConfig{Servers: []int{1}, Key: key, Dim: len(base)})
		if err != nil {
			return nil, err
		}
		delta := base.Clone()
		delta.Scale(1e-6)
		times := make([]time.Duration, 0, reps)
		for k := 0; k < warmup+reps; k++ {
			start := time.Now()
			if _, _, err := c.PushPull(delta, ps.Add, 0); err != nil {
				return nil, err
			}
			if k >= warmup {
				times = append(times, time.Since(start))
			}
		}
		return times, nil
	}()
	closeAll()
	if werr := srv.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("ps server: %w", werr)
	}
	return times, err
}

package core

import (
	"fmt"
	"sync"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/ps"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/transport"
)

// HierarchicalConfig configures one worker of the hierarchical scheme
// (Section 4) on the goroutine runtime: speed-homogeneous groups each run
// RNA internally; periodically each group's leader exchanges the group's
// accumulated update with a shared parameter server and broadcasts the
// pulled global model inside the group.
type HierarchicalConfig struct {
	// Train carries the per-worker training configuration.
	Train TrainConfig
	// Groups partitions the worker ranks (e.g. from
	// topology.PartitionByObservations). Every worker rank must appear
	// exactly once; PS server ranks (see PS) appear in no group.
	Groups []topology.Group
	// Store is the shared in-process parameter server — the loopback
	// fast path; seed it with SeedStore before starting any worker.
	// Ignored when PS is set.
	Store *ps.Store
	// PS, when set, makes group leaders speak the networked PS wire
	// protocol to the configured server ranks instead of calling the
	// in-process Store. Key defaults to HierarchicalPSKey and Dim to the
	// model dimension; the server ranks must run ps.NewServer on the same
	// mesh with matching geometry and must not be members of any group.
	// With an f64 wire the run is bit-identical to the loopback path.
	PS *ps.ClientConfig
	// PSEvery is the PS exchange period in group synchronizations
	// (default 4).
	PSEvery int
	// OrderedPS imposes a deterministic global exchange order: group g's
	// r-th PS exchange waits until the global model's version reaches
	// 1 + r·G + g (G = len(Groups)), so every run — loopback or
	// networked — applies the identical operation sequence and finals are
	// bitwise reproducible at f64. Requires every group to perform the
	// same number of exchanges (equal Iterations and PSEvery).
	OrderedPS bool
}

// HierarchicalPSKey is the store key holding the hierarchical global model.
// Networked deployments point ps.ServerConfig.Key at it.
const HierarchicalPSKey = "hierarchical-global"

// hierarchicalPSKey is kept for package-internal uses.
const hierarchicalPSKey = HierarchicalPSKey

func (c *HierarchicalConfig) psEvery() int {
	if c.PSEvery < 1 {
		return 4
	}
	return c.PSEvery
}

// InitialParams returns the deterministic initial global model the
// hierarchical scheme starts from — the vector SeedStore publishes and a
// networked ps.Server should be seeded with (ServerConfig.Init).
func InitialParams(cfg TrainConfig) (tensor.Vector, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	params := tensor.New(cfg.Model.Dim())
	cfg.Model.Init(rng.New(cfg.Seed+7777), params)
	return params, nil
}

// SeedStore initializes the shared parameter server with the deterministic
// initial model every worker starts from. Call once before starting the
// cluster.
func SeedStore(store *ps.Store, cfg TrainConfig) error {
	params, err := InitialParams(cfg)
	if err != nil {
		return err
	}
	_, err = store.Push(hierarchicalPSKey, params, ps.Overwrite)
	return err
}

// groupOf finds the group containing the global rank.
func groupOf(groups []topology.Group, rank int) (int, *topology.Group, error) {
	for gi := range groups {
		for _, m := range groups[gi].Members {
			if m == rank {
				return gi, &groups[gi], nil
			}
		}
	}
	return 0, nil, fmt.Errorf("core: rank %d not in any group", rank)
}

// globalStore resolves the leader's PS handle: a networked Client when
// cfg.PS is set, the in-process loopback otherwise. Both implement
// ps.GlobalStore and are bit-identical at an f64 wire.
func (c *HierarchicalConfig) globalStore(mesh transport.Mesh) (ps.GlobalStore, error) {
	if c.PS != nil {
		ccfg := *c.PS
		if ccfg.Key == "" {
			ccfg.Key = HierarchicalPSKey
		}
		if ccfg.Dim == 0 && c.Train.Model != nil {
			ccfg.Dim = c.Train.Model.Dim()
		}
		return ps.NewClient(mesh, ccfg)
	}
	if c.Store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	return ps.Loopback(c.Store, HierarchicalPSKey), nil
}

// RunHierarchicalWorker trains one rank of a hierarchical cluster. All
// ranks share one mesh; each group's RNA traffic runs over a SubMesh of its
// members, with its own controller (ctrls[gi], sized to the group). The
// group's local rank 0 performs the PS exchange — against the in-process
// Store or a networked PS service, per cfg — pushing the group's parameter
// delta since its last pull, pulling the global model, and broadcasting it
// within the group; every member adopts the broadcast.
func RunHierarchicalWorker(mesh transport.Mesh, ctrls []*controller.Controller, cfg HierarchicalConfig) (*Result, error) {
	if cfg.Store == nil && cfg.PS == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	gi, group, err := groupOf(cfg.Groups, mesh.Rank())
	if err != nil {
		return nil, err
	}
	if gi >= len(ctrls) || ctrls[gi] == nil {
		return nil, fmt.Errorf("core: no controller for group %d", gi)
	}
	sub, err := transport.NewSubMesh(mesh, group.Members)
	if err != nil {
		return nil, err
	}
	leader := sub.Rank() == 0
	var global ps.GlobalStore
	if leader {
		if global, err = cfg.globalStore(mesh); err != nil {
			return nil, err
		}
	}

	// lastPull is the model the leader last adopted; delta and pulled are
	// per-rank exchange buffers reused across exchanges.
	var lastPull, delta, pulled tensor.Vector
	period := int64(cfg.psEvery())
	nGroups := int64(len(cfg.Groups))
	exchanges := int64(0)

	post := func(k int64, mu *sync.Mutex, params tensor.Vector) error {
		if (k+1)%period != 0 {
			return nil
		}
		if pulled == nil {
			pulled = tensor.New(len(params))
		}
		if leader {
			if lastPull == nil {
				// First exchange: baseline is the shared init.
				lastPull, err = InitialParams(cfg.Train)
				if err != nil {
					return err
				}
				delta = tensor.New(len(params))
			}
			// delta = params − lastPull, read under mu.
			mu.Lock()
			copy(delta, params)
			mu.Unlock()
			if err := delta.Sub(lastPull); err != nil {
				return err
			}
			var minVersion int64
			if cfg.OrderedPS {
				// The seed publish is version 1; this leader's r-th
				// exchange is the (r·G + gi)-th global operation.
				minVersion = 1 + exchanges*nGroups + int64(gi)
			}
			out, _, err := global.PushPull(delta, ps.Add, minVersion)
			if err != nil {
				return err
			}
			exchanges++
			copy(pulled, out)
			lastPull = out
		}
		// In-group broadcast of the pulled global model. Tag with a
		// distinct iteration namespace so it cannot be confused with
		// AllReduce chunks.
		if err := collective.Broadcast(sub, ^k, pulled, 0); err != nil {
			return err
		}
		mu.Lock()
		copy(params, pulled)
		mu.Unlock()
		return nil
	}

	res, err := runRNAWorker(sub, ctrls[gi], cfg.Train, post)
	if err != nil {
		return nil, fmt.Errorf("group %d: %w", gi, err)
	}
	return res, nil
}

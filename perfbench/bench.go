package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trainsim"
)

// Share of a traced run's budget spent on untraced and on traced trials;
// the single-worker baseline and the layer replays take the rest.
const (
	untracedShare = 0.4
	tracedShare   = 0.45
	// minTimedTrials keeps a median meaningful on a short budget.
	minTimedTrials = 3
	// replayReps is the number of timed calls per replay: enough that the
	// 99th percentile has ten samples beyond it.
	replayReps = 1000
)

// trialOut is what one trial measured and checked. For sim-paper, syncs
// counts simulated rounds over the three strategies.
type trialOut struct {
	setup, connect, wall, cpu time.Duration
	syncs                     int
	timeToLoss                float64 // seconds; 0 when the target was missed
	finalLoss                 float64
	digest                    string // final state, see README.md
	allocBytes                uint64
	gcCycles                  uint32
	failures                  []string

	// Real runtime only.
	initLoss           float64
	contributed, nulls int
	exchanges          int64 // PS version advance (kindHier)

	// sim-paper only: Horovod, RNA, RNA-H.
	results []*trainsim.Result
}

func (o *trialOut) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *trialOut) itersPerSec() float64 { return float64(o.syncs) / o.wall.Seconds() }

// trialSeed derives trial i's seed from the run seed.
func trialSeed(seed int64, i int) int64 { return rng.Mix(seed, i) }

// timed runs untraced trials for the budget and reduces them to the
// end-to-end metrics.
func timed(b bench, seed int64, budget time.Duration) (*report, error) {
	rep := newReport()
	var trials []*trialOut
	err := repeat(budget, minTimedTrials, func(i int) error {
		o, err := b.runTrial(trialSeed(seed, i), nil)
		if err != nil {
			return err
		}
		rep.addTrial(o)
		trials = append(trials, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var setup, ips, ttl, loss, cpu []float64
	for _, o := range trials {
		setup = append(setup, o.setup.Seconds())
		ips = append(ips, o.itersPerSec())
		ttl = append(ttl, o.timeToLoss)
		loss = append(loss, o.finalLoss)
		cpu = append(cpu, float64(o.cpu)/1e6/float64(o.syncs))
	}
	rep.metrics = map[string]float64{
		"setup_s":         median(setup),
		"iters_per_s":     median(ips),
		"time_to_loss_s":  median(ttl),
		"final_loss":      median(loss),
		"cpu_ms_per_iter": median(cpu),
		"mem_peak_mb":     peakRSSMiB(),
	}
	rep.notes["trials"] = len(trials)
	rep.notes["digest"] = trials[0].digest
	return rep, nil
}

// traced runs untraced trials, then traced trials of the same seeds, then
// the workload's single-worker baseline and layer replays, and reports the
// per-layer metrics: medians over traced trials.
func traced(b bench, seed int64, budget time.Duration) (*report, error) {
	rep := newReport()
	var plain, traced []float64
	var digest string
	err := repeat(time.Duration(untracedShare*float64(budget)), 1, func(i int) error {
		o, err := b.runTrial(trialSeed(seed, i), nil)
		if err != nil {
			return err
		}
		rep.addTrial(o)
		plain = append(plain, o.itersPerSec())
		if i == 0 {
			digest = o.digest
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	perTrial := map[string][]float64{}
	err = repeat(time.Duration(tracedShare*float64(budget)), 1, func(i int) error {
		t := &tracer{}
		o, err := b.runTrial(trialSeed(seed, i), t)
		if err != nil {
			return err
		}
		if i == 0 && b.deterministic() && o.digest != digest {
			o.fail("traced final state %s differs from untraced %s", o.digest, digest)
		}
		rep.addTrial(o)
		traced = append(traced, o.itersPerSec())
		for k, v := range b.layers(o, t) {
			perTrial[k] = append(perTrial[k], v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, vs := range perTrial {
		rep.metrics[k] = median(vs)
	}
	rep.metrics["trace.iters_per_s_delta"] = median(traced) - median(plain)

	single, err := b.singleWorkerGradMs(trialSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	rep.metrics["model.contention"] = rep.metrics["model.grad_ms"] / single
	if err := b.replay(rep, trialSeed(seed, 0)); err != nil {
		return nil, err
	}
	rep.notes["untraced_trials"], rep.notes["traced_trials"] = len(plain), len(traced)
	rep.notes["untraced_iters_per_s"], rep.notes["traced_iters_per_s"] = median(plain), median(traced)
	rep.notes["single_worker_grad_ms"] = single
	rep.notes["replay_samples"] = replayReps
	return rep, nil
}

// replay replays the collective, optimizer and (for the hierarchical
// scheme) PS client calls at the workload's shape.
func (s *realSpec) replay(rep *report, seed int64) error {
	base := s.initialVector(seed)
	ar, err := replayCollective(s.tcp, s.collectiveRanks(), base, replayReps, false)
	if err != nil {
		return err
	}
	pa, err := replayCollective(s.tcp, s.collectiveRanks(), base, replayReps, true)
	if err != nil {
		return err
	}
	arMs, paMs := durationsMs(ar), durationsMs(pa)
	rep.metrics["collective.allreduce_ms.p50"] = percentile(arMs, 50)
	rep.metrics["collective.allreduce_ms.p99"] = percentile(arMs, 99)
	rep.metrics["collective.partial_ms.p50"] = percentile(paMs, 50)
	rep.metrics["collective.partial_ms.p99"] = percentile(paMs, 99)
	if err := replayOpt(rep, base); err != nil {
		return err
	}
	if s.kind != kindHier {
		return nil
	}
	pp, err := replayPushPull(base, replayReps)
	if err != nil {
		return err
	}
	ppMs := durationsMs(pp)
	rep.metrics["ps.pushpull_ms.p50"] = percentile(ppMs, 50)
	rep.metrics["ps.pushpull_ms.p99"] = percentile(ppMs, 99)
	return nil
}

// replay times the momentum-SGD step the engines apply to the model vector.
func (s *simSpec) replay(rep *report, _ int64) error {
	return replayOpt(rep, tensor.New(s.dim()))
}

func replayOpt(rep *report, base tensor.Vector) error {
	st, err := replayOptStep(base, replayReps)
	if err != nil {
		return err
	}
	rep.metrics["opt.step_us"] = percentile(durationsMs(st), 50) * 1e3
	return nil
}

func (s *realSpec) labels() map[string]any {
	n, dim := s.collectiveRanks(), s.dim()
	elems := dim
	if s.kind != kindBSP {
		elems++ // the partial collective appends the contributor flag
	}
	fabric := "in-memory"
	if s.tcp {
		fabric = "tcp-localhost"
	}
	l := map[string]any{
		"model_dim":           dim,
		"ranks":               s.ranks(),
		"syncs_per_trial":     s.syncs,
		"fabric":              fabric,
		"collective_schedule": schedule(n, elems),
	}
	if s.delay != nil {
		l["injected_delay"] = s.delay().Describe()
	}
	return l
}

// schedule names the dense schedule collective's auto selection runs for
// an AllReduce of elems elements over n ranks under the default cost model.
func schedule(n, elems int) string {
	if branches := collective.ActiveCostModel().SelectLevels(n, elems, tensor.F64); branches != nil {
		return fmt.Sprintf("multilevel%v", branches)
	}
	return collective.SelectAlgorithm(n, elems).String()
}

func (s *simSpec) labels() map[string]any {
	return map[string]any{
		"workers":             s.workers,
		"target_loss":         s.targetLoss,
		"cost_model":          "ResNet50, step and comm compressed 2x",
		"injected_delay":      "uniform[0,50ms) + spikes(p=0.02, [1s,2s))",
		"collective_schedule": "ring (priced)",
	}
}

// hostLabels fingerprints the host and the code a result was measured on.
// The checkout is not a git repository, so the code is identified by a
// digest of its Go sources.
func hostLabels() map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden directories such as the build cache) in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Command perfbench is the repository's end-to-end benchmark: it drives the
// public runtime (core workers on transport meshes with a controller and a
// parameter server) and the virtual-time engine (trainsim) on four named
// workloads, checks their outputs, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/hetero"
)

// metricDef is one reported metric: its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"iters_per_s", "1/s", "higher"},
	{"time_to_loss_s", "s", "lower"},
	{"final_loss", "loss", "lower"},
	{"cpu_ms_per_iter", "ms", "lower"},
	{"mem_peak_mb", "MiB", "lower"},
}

// perLayerMetrics are reported by every traced run. A layer the workload
// does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"model.grad_ms", "ms", "lower"},
	{"model.busy_share", "share", "lower"},
	{"model.contention", "ratio", "lower"},
	{"data.batch_share", "share", "lower"},
	{"hetero.delay_share", "share", "lower"},
	{"core.sync_share", "share", "lower"},
	{"core.contrib_ratio", "ratio", "higher"},
	{"transport.msgs_per_iter", "msg/iter", "lower"},
	{"transport.bytes_per_iter", "B/iter", "lower"},
	{"transport.send_us", "us", "lower"},
	{"transport.recv_wait_share", "share", "lower"},
	{"transport.connect_ms", "ms", "lower"},
	{"collective.allreduce_ms.p50", "ms", "lower"},
	{"collective.allreduce_ms.p99", "ms", "lower"},
	{"collective.partial_ms.p50", "ms", "lower"},
	{"collective.partial_ms.p99", "ms", "lower"},
	{"opt.step_us", "us", "lower"},
	{"ps.exchanges_per_s", "1/s", "higher"},
	{"ps.bytes_per_exchange", "B", "lower"},
	{"ps.pushpull_ms.p50", "ms", "lower"},
	{"ps.pushpull_ms.p99", "ms", "lower"},
	{"trainsim.model_share", "share", "higher"},
	{"trainsim.rounds.horovod", "count", "lower"},
	{"trainsim.rounds.rna", "count", "lower"},
	{"trainsim.rounds.rna_h", "count", "lower"},
	{"go.alloc_bytes_per_iter", "B/iter", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.iters_per_s_delta", "1/s", "higher"},
}

// bench is one workload.
type bench interface {
	// runTrial runs one complete trial, traced into t when t is non-nil.
	runTrial(seed int64, t *tracer) (*trialOut, error)
	// deterministic reports whether a trial's digest is a pure function
	// of its seed.
	deterministic() bool
	// layers reduces a traced trial to per-layer metrics.
	layers(o *trialOut, t *tracer) map[string]float64
	// singleWorkerGradMs is the mean Gradient time of the task on one
	// worker.
	singleWorkerGradMs(seed int64) (float64, error)
	// replay times the public calls of the layers the workers call
	// internally and records them in rep.
	replay(rep *report, seed int64) error
	// labels describes the configuration a result was measured under.
	labels() map[string]any
}

// workloads are the benchmark's named workloads; README.md records why
// each exists.
var workloads = map[string]bench{
	"straggler-rna-tcp": &realSpec{
		kind: kindRNA, tcp: true, workers: 4,
		classes: 10, features: 64, perClass: 200, spread: 1.0, labelNoise: 0.2,
		hidden: 64, batch: 32, lr: 0.05, momentum: 0.9, syncs: 60,
		delay:      func() hetero.Injector { return hetero.UniformRandom{Lo: 0, Hi: 50 * time.Millisecond} },
		lossTarget: 1.3, lossWindow: 20,
	},
	"dense-bsp-mem": &realSpec{
		kind: kindBSP, workers: 4,
		classes: 8, features: 128, perClass: 128, spread: 8,
		hidden: 1024, batch: 8, lr: 0.005, momentum: 0.9, syncs: 200,
		lossTarget: 0.5, lossWindow: 40,
	},
	"hier-ps-tcp": &realSpec{
		kind: kindHier, tcp: true, workers: 4, groups: [][]int{{0, 1}, {2, 3}},
		classes: 10, features: 64, perClass: 200, spread: 1.0, labelNoise: 0.2,
		hidden: 64, batch: 32, lr: 0.05, momentum: 0.9, syncs: 300,
		delay: func() hetero.Injector {
			return hetero.PerNode{Delays: []time.Duration{0, 0, 2 * time.Millisecond, 2 * time.Millisecond}}
		},
		lossTarget: 1.1, lossWindow: 20,
	},
	"sim-paper": &simSpec{workers: 32, lr: 0.02, targetLoss: 0.30, capIters: 4000},
}

// report is a run's outcome before formatting.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]any{}}
}

// addTrial counts a trial's synchronizations as attempted and, when any of
// its output checks failed, as failed.
func (r *report) addTrial(o *trialOut) {
	r.attempted += o.syncs
	if len(o.failures) > 0 {
		r.failed += o.syncs
		for _, f := range o.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
	}
}

// repeat runs trial(i) for i = 0, 1, ... at least min times and then
// while half a trial of the mean length so far still fits in the budget,
// so a run ends within half a trial of its budget.
func repeat(budget time.Duration, min int, trial func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= min {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(2*i) > budget {
				return nil
			}
		}
		if err := trial(i); err != nil {
			return err
		}
	}
}

// watchdogSlack is how long a run may overrun its budget before it is
// abandoned as hung; a healthy run overruns by at most one trial.
const watchdogSlack = 90 * time.Second

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	b, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}

	labels := hostLabels()
	for k, v := range b.labels() {
		labels[k] = v
	}
	labels["workload"], labels["seed"], labels["trace"] = *name, *seed, *trace
	printJSON(map[string]any{"labels": labels})

	budget := time.Duration(*seconds) * time.Second
	// A hung trial fails the run instead of outliving its caller.
	watchdog := time.AfterFunc(budget+watchdogSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %v budget by %v\n", budget, watchdogSlack)
		os.Exit(1)
	})
	defer watchdog.Stop()
	var rep *report
	var err error
	defs := endToEndMetrics
	if *trace == 1 {
		rep, err = traced(b, *seed, budget)
		defs = perLayerMetrics
	} else {
		rep, err = timed(b, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printJSON(map[string]any{"notes": rep.notes})

	res := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: rep.metrics[d.name], Unit: d.unit}
	}
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}

package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/transport"
)

// short returns a copy of a real-runtime workload cut to a few syncs with
// a loss target every trial meets, for tests of the harness itself.
func short(t *testing.T, name string) realSpec {
	t.Helper()
	s := *workloads[name].(*realSpec)
	s.syncs, s.lossWindow, s.lossTarget = 20, 5, 100
	return s
}

// TestTracedDenseMatchesUntraced: the traced dense-bsp-mem run executes
// the same program as the untraced one, so its final parameters are
// bitwise equal.
func TestTracedDenseMatchesUntraced(t *testing.T) {
	s := short(t, "dense-bsp-mem")
	plain, err := s.runTrial(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr tracer
	traced, err := s.runTrial(7, &tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*trialOut{plain, traced} {
		if len(o.failures) > 0 {
			t.Fatalf("checks failed: %v", o.failures)
		}
	}
	if plain.digest != traced.digest {
		t.Fatalf("traced parameters %s, untraced %s", traced.digest, plain.digest)
	}
	if tr.gradCalls.Load() != int64(s.workers*s.syncs) || tr.msgs.Load() == 0 {
		t.Fatalf("tracer saw %d gradients and %d messages", tr.gradCalls.Load(), tr.msgs.Load())
	}
}

// TestTrialsPassChecks runs one short traced trial of every real-runtime
// workload and one sim-paper trial through the output checks.
func TestTrialsPassChecks(t *testing.T) {
	for _, name := range []string{"straggler-rna-tcp", "dense-bsp-mem", "hier-ps-tcp"} {
		s := short(t, name)
		o, err := s.runTrial(3, &tracer{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(o.failures) > 0 {
			t.Errorf("%s: %v", name, o.failures)
		}
	}
	o, err := workloads["sim-paper"].(*simSpec).runTrial(3, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.failures) > 0 {
		t.Errorf("sim-paper: %v", o.failures)
	}
}

// TestWrappersPreserveCapabilities: the trace wrappers implement exactly
// the optional interfaces of what they wrap.
func TestWrappersPreserveCapabilities(t *testing.T) {
	var tr tracer
	cl, err := transport.NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range cl {
			_ = m.Close()
		}
	}()
	tcp := wrapMesh(cl[0], &tr, true)
	if _, ok := tcp.(transport.StreamRouter); !ok {
		t.Error("wrapped TCP mesh lost StreamView")
	}
	if _, ok := tcp.(transport.OwnedSender); !ok {
		t.Error("wrapped TCP mesh lost SendOwned")
	}
	if got, want := transport.MeshCaps(tcp), cl[0].Caps(); got != want {
		t.Errorf("wrapped caps %v, want %v", got, want)
	}
	view := tcp.(transport.StreamRouter).StreamView(3)
	if _, ok := view.(*tracedMesh); !ok {
		t.Errorf("stream view %T is not traced", view)
	}

	net, err := transport.NewLocalNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	if _, ok := wrapMesh(net.Endpoints()[0], &tr, true).(transport.StreamRouter); ok {
		t.Error("wrapped in-memory mesh gained StreamView")
	}

	ds, err := data.Blobs(rng.New(1), 3, 4, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := model.NewMLP(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	wm := wrapModel(mlp, &tr)
	if _, ok := wm.(model.LayeredModel); !ok {
		t.Error("wrapped MLP lost LayeredModel")
	}
	if _, ok := wm.(model.Classifier); !ok {
		t.Error("wrapped MLP lost Classifier")
	}
	if _, ok := wm.(model.WorkerCloner); ok {
		t.Error("wrapped MLP gained WorkerCloner")
	}
	q, err := model.NewQuadratic(rng.New(1), 8, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	wq, ok := wrapModel(q, &tr).(model.WorkerCloner)
	if !ok {
		t.Fatal("wrapped Quadratic lost WorkerCloner")
	}
	before := tr.gradCalls.Load()
	clone := wq.CloneForWorker(1)
	if _, err := clone.Gradient(make([]float64, 8), make([]float64, 8), nil); err != nil {
		t.Fatal(err)
	}
	if tr.gradCalls.Load() != before+1 {
		t.Error("clone's gradient was not traced")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in agreement.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the program", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json %+v, program %+v", m, d)
			}
		}
	}
}

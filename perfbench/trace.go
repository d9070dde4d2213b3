package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// tracer collects the per-layer counters of one traced trial. The wrappers
// below time every call they forward from outside the program: the model
// interface the workers compute with, the mesh they communicate over and
// the Batch/SlowDown callbacks of core.TrainConfig. Counters are atomic
// because every rank (and the stream views of a rank) reports concurrently.
type tracer struct {
	gradCalls, gradNs atomic.Int64 // model.Model Gradient (and GradientLayers)
	batchNs           atomic.Int64 // TrainConfig.Batch
	delayNs           atomic.Int64 // injected TrainConfig.SlowDown delays
	msgs, bytes       atomic.Int64 // messages and frame bytes sent
	sendNs            atomic.Int64 // time inside Send/SendOwned
	recvNs            atomic.Int64 // time blocked in Recv on worker ranks
	psBytes           atomic.Int64 // frame bytes of parameter-server frames

	// coverage tracks the wall time during which at least one model call
	// is running (the simulator fans gradients out concurrently, so summed
	// call time can exceed wall time).
	mu      sync.Mutex
	active  int
	since   time.Time
	covered time.Duration
}

func (t *tracer) enter() time.Time {
	now := time.Now()
	t.mu.Lock()
	if t.active == 0 {
		t.since = now
	}
	t.active++
	t.mu.Unlock()
	return now
}

// leave ends a model call begun at start; grad marks a gradient call.
func (t *tracer) leave(start time.Time, grad bool) {
	now := time.Now()
	if grad {
		t.gradCalls.Add(1)
		t.gradNs.Add(now.Sub(start).Nanoseconds())
	}
	t.mu.Lock()
	t.active--
	if t.active == 0 {
		t.covered += now.Sub(t.since)
	}
	t.mu.Unlock()
}

func (t *tracer) modelCovered() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.covered
}

// gradMs is the mean Gradient call time in milliseconds.
func (t *tracer) gradMs() float64 {
	n := t.gradCalls.Load()
	if n == 0 {
		return 0
	}
	return float64(t.gradNs.Load()) / float64(n) / 1e6
}

// wrapModel returns m with every model call timed into t. The wrapper
// implements exactly the optional interfaces m implements (Classifier,
// LayeredModel, WorkerCloner), so engines that type-assert on them run the
// same code path traced as untraced.
func wrapModel(m model.Model, t *tracer) model.Model {
	base := &tracedModel{inner: m, t: t}
	cls, isCls := m.(model.Classifier)
	lay, isLay := m.(model.LayeredModel)
	clo, isClo := m.(model.WorkerCloner)
	a, l, c := accuracyFwd{cls}, layersFwd{lay, t}, clonerFwd{clo, t}
	switch {
	case isCls && isLay && isClo:
		return struct {
			*tracedModel
			accuracyFwd
			layersFwd
			clonerFwd
		}{base, a, l, c}
	case isCls && isLay:
		return struct {
			*tracedModel
			accuracyFwd
			layersFwd
		}{base, a, l}
	case isCls && isClo:
		return struct {
			*tracedModel
			accuracyFwd
			clonerFwd
		}{base, a, c}
	case isLay && isClo:
		return struct {
			*tracedModel
			layersFwd
			clonerFwd
		}{base, l, c}
	case isCls:
		return struct {
			*tracedModel
			accuracyFwd
		}{base, a}
	case isLay:
		return struct {
			*tracedModel
			layersFwd
		}{base, l}
	case isClo:
		return struct {
			*tracedModel
			clonerFwd
		}{base, c}
	}
	return base
}

type tracedModel struct {
	inner model.Model
	t     *tracer
}

func (m *tracedModel) Dim() int { return m.inner.Dim() }

func (m *tracedModel) Init(src *rng.Source, params tensor.Vector) { m.inner.Init(src, params) }

func (m *tracedModel) Loss(params tensor.Vector, batch []int) (float64, error) {
	start := m.t.enter()
	defer m.t.leave(start, false)
	return m.inner.Loss(params, batch)
}

func (m *tracedModel) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	start := m.t.enter()
	defer m.t.leave(start, true)
	return m.inner.Gradient(params, grad, batch)
}

type accuracyFwd struct{ c model.Classifier }

func (a accuracyFwd) Accuracy(params tensor.Vector, batch []int, k int) (float64, float64, error) {
	return a.c.Accuracy(params, batch, k)
}

type layersFwd struct {
	l model.LayeredModel
	t *tracer
}

func (l layersFwd) GradientBuckets() []model.Span { return l.l.GradientBuckets() }

func (l layersFwd) GradientLayers(params, grad tensor.Vector, batch []int, emit func(layer int) error) (float64, error) {
	start := l.t.enter()
	defer l.t.leave(start, true)
	return l.l.GradientLayers(params, grad, batch, emit)
}

type clonerFwd struct {
	c model.WorkerCloner
	t *tracer
}

func (c clonerFwd) CloneForWorker(worker int) model.Model {
	return wrapModel(c.c.CloneForWorker(worker), c.t)
}

// wrapMesh returns m with every send and receive counted into t. Receive
// wait is recorded only when waits is set: a parameter-server rank blocks
// in Recv for the whole run by design, which is not training wait. The
// wrapper forwards SendOwned (ownership transfer), Caps (negotiated
// capabilities) and, when m routes streams natively, StreamView with the
// returned views wrapped too; without StreamView, transport.Streams would
// fall back to a cooperative demux and the traced run would execute a
// different program.
func wrapMesh(m transport.Mesh, t *tracer, waits bool) transport.Mesh {
	base := &tracedMesh{inner: m, t: t, waits: waits}
	if sr, ok := m.(transport.StreamRouter); ok {
		return &tracedRouter{tracedMesh: base, router: sr}
	}
	return base
}

type tracedMesh struct {
	inner transport.Mesh
	t     *tracer
	waits bool
}

func (m *tracedMesh) Rank() int    { return m.inner.Rank() }
func (m *tracedMesh) Size() int    { return m.inner.Size() }
func (m *tracedMesh) Close() error { return m.inner.Close() }

// Caps reports the wrapped mesh's negotiated capability set.
func (m *tracedMesh) Caps() transport.Caps { return transport.MeshCaps(m.inner) }

func (m *tracedMesh) count(typ transport.MsgType, elems int, start time.Time) {
	m.t.sendNs.Add(time.Since(start).Nanoseconds())
	b := int64(transport.FrameBytes(elems))
	m.t.msgs.Add(1)
	m.t.bytes.Add(b)
	if typ.IsPS() {
		m.t.psBytes.Add(b)
	}
}

func (m *tracedMesh) Send(to int, msg transport.Message) error {
	start := time.Now()
	err := m.inner.Send(to, msg)
	m.count(msg.Type, len(msg.Payload), start)
	return err
}

// SendOwned hands the payload to the wrapped mesh with the same ownership
// transfer (or fallback) an unwrapped caller would get.
func (m *tracedMesh) SendOwned(to int, msg transport.Message) error {
	start := time.Now()
	err := transport.SendOwned(m.inner, to, msg)
	m.count(msg.Type, len(msg.Payload), start)
	return err
}

func (m *tracedMesh) Recv(from int) (transport.Message, error) {
	if !m.waits {
		return m.inner.Recv(from)
	}
	start := time.Now()
	msg, err := m.inner.Recv(from)
	m.t.recvNs.Add(time.Since(start).Nanoseconds())
	return msg, err
}

type tracedRouter struct {
	*tracedMesh
	router transport.StreamRouter
}

func (m *tracedRouter) StreamView(id int32) transport.Mesh {
	return wrapMesh(m.router.StreamView(id), m.t, m.waits)
}

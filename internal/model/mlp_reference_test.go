package model

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The per-example MLP backprop and loss as they stood before the batch-major
// rewrite, frozen as the bitwise reference for it. The bodies are the old
// MLP.forward, MLP.Loss and MLP.Gradient verbatim, except that scratch
// buffers are allocated locally instead of borrowed from the workspace pool.

func mlpForwardReference(m *MLP, params tensor.Vector, x tensor.Vector, hid, logits []float64) {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	w1, b1, w2, b2 := m.slices(params)
	for j := 0; j < h; j++ {
		hid[j] = math.Tanh(b1[j] + tensor.Dot(w1[j*f:(j+1)*f], x))
	}
	for k := 0; k < c; k++ {
		logits[k] = b2[k] + tensor.Dot(w2[k*h:(k+1)*h], hid)
	}
}

func mlpLossReference(m *MLP, params tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, errors.New("model: empty batch")
	}
	hid := make([]float64, m.hidden)
	probs := make([]float64, m.ds.Classes)
	var loss float64
	for _, idx := range batch {
		if idx < 0 || idx >= m.ds.Len() {
			return 0, fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
		ex := m.ds.Examples[idx]
		mlpForwardReference(m, params, ex.X, hid, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return loss / float64(len(batch)), nil
}

func mlpGradientReference(m *MLP, params, grad tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() || len(grad) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if len(batch) == 0 {
		return 0, errors.New("model: empty batch")
	}
	grad.Zero()
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	_, _, w2, _ := m.slices(params)
	gw1, gb1, gw2, gb2 := m.slices(grad)
	hid := make([]float64, h)
	probs := make([]float64, c)
	deltaH := make([]float64, h)
	inv := 1 / float64(len(batch))
	var loss float64
	for _, idx := range batch {
		if idx < 0 || idx >= m.ds.Len() {
			return 0, fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
		ex := m.ds.Examples[idx]
		mlpForwardReference(m, params, ex.X, hid, probs)
		softmaxInPlace(probs)
		p := probs[ex.Label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)

		for j := range deltaH {
			deltaH[j] = 0
		}
		for k := 0; k < c; k++ {
			d := probs[k]
			if k == ex.Label {
				d--
			}
			tensor.Axpy(gw2[k*h:(k+1)*h], d*inv, hid)
			tensor.Axpy(deltaH, d, w2[k*h:(k+1)*h])
			gb2[k] += d * inv
		}
		for j := 0; j < h; j++ {
			dh := deltaH[j] * (1 - hid[j]*hid[j])
			tensor.Axpy(gw1[j*f:(j+1)*f], dh*inv, ex.X)
			gb1[j] += dh * inv
		}
	}
	return loss * inv, nil
}

// mlpRefShape is one architecture and batch size of the reference table.
type mlpRefShape struct {
	hidden, features, classes, batch int
}

// mlpRefShapes crosses hidden widths, input widths, class counts and batch
// sizes: the batch sizes take both the paired and the single path of the
// two-operand dot, and empty, partial and full blocks of the eight-operand
// axpy; the widths run the four-wide unrolled loops with and without a
// tail.
func mlpRefShapes() []mlpRefShape {
	var out []mlpRefShape
	for _, h := range []int{1, 3, 17, 64, 1024} {
		for _, f := range []int{1, 3, 11, 128} {
			for _, c := range []int{2, 8, 10} {
				for _, n := range []int{1, 2, 3, 5, 8, 33} {
					out = append(out, mlpRefShape{h, f, c, n})
				}
			}
		}
	}
	return out
}

// checkMLPMatchesReference builds the shape's model with nonzero biases and
// a seeded random batch (repeats allowed) and requires Gradient and Loss to
// equal the per-example reference bit for bit. Loss also runs on a batch
// long enough to span several forward blocks.
func checkMLPMatchesReference(t *testing.T, s mlpRefShape, seed int64) {
	t.Helper()
	src := rng.New(seed)
	ds, err := data.Blobs(src, s.classes, s.features, 6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(ds, s.hidden)
	if err != nil {
		t.Fatal(err)
	}
	params := tensor.New(m.Dim())
	m.Init(src, params)
	_, b1, _, b2 := m.slices(params)
	for i := range b1 {
		b1[i] = src.Normal(0, 1)
	}
	for i := range b2 {
		b2[i] = src.Normal(0, 1)
	}
	batch := make([]int, s.batch)
	for i := range batch {
		batch[i] = src.Intn(ds.Len())
	}

	want := tensor.New(m.Dim())
	wantLoss, err := mlpGradientReference(m, params, want, batch)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.New(m.Dim())
	gotLoss, err := m.Gradient(params, got, batch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%+v: gradient loss %v, reference %v", s, gotLoss, wantLoss)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v: grad[%d] = %v, reference %v", s, i, got[i], want[i])
		}
	}

	long := make([]int, 2*mlpLossBlock+s.batch)
	for i := range long {
		long[i] = src.Intn(ds.Len())
	}
	for _, b := range [][]int{batch, long} {
		wantLoss, err := mlpLossReference(m, params, b)
		if err != nil {
			t.Fatal(err)
		}
		gotLoss, err := m.Loss(params, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%+v: loss over %d examples %v, reference %v", s, len(b), gotLoss, wantLoss)
		}
	}
}

func TestMLPGradientMatchesReference(t *testing.T) {
	for i, s := range mlpRefShapes() {
		checkMLPMatchesReference(t, s, int64(i+1))
	}
}

func FuzzMLPGradientMatchesReference(f *testing.F) {
	for i, s := range mlpRefShapes() {
		f.Add(uint16(s.hidden), uint8(s.features), uint8(s.classes), uint8(s.batch), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, hidden uint16, features, classes, batch uint8, seed int64) {
		s := mlpRefShape{
			hidden:   1 + int(hidden)%1024,
			features: 1 + int(features)%128,
			classes:  2 + int(classes)%9,
			batch:    1 + int(batch)%64,
		}
		checkMLPMatchesReference(t, s, seed)
	})
}

// TestBadBatchLeavesGradUntouched: an out-of-range index anywhere in the
// batch fails the call with ErrBadBatch before grad is written.
func TestBadBatchLeavesGradUntouched(t *testing.T) {
	_, models := testModels(t)
	mlp := models[1].(*MLP)
	gradFns := []struct {
		name string
		m    Model
		fn   func(params, grad tensor.Vector, batch []int) (float64, error)
	}{
		{"MLP.Gradient", mlp, mlp.Gradient},
		{"MLP.GradientLayers", mlp, func(p, g tensor.Vector, b []int) (float64, error) {
			return mlp.GradientLayers(p, g, b, func(int) error { return nil })
		}},
		{"Logistic.Gradient", models[0], models[0].Gradient},
		{"LinearRegression.Gradient", models[2], models[2].Gradient},
	}
	for _, g := range gradFns {
		n := g.m.Dim()
		size := datasetLen(g.m)
		for _, bad := range []int{-1, size, size + 7} {
			for pos := 0; pos < 3; pos++ {
				batch := []int{0, 1, 2}
				batch[pos] = bad
				t.Run(fmt.Sprintf("%s/idx%d/pos%d", g.name, bad, pos), func(t *testing.T) {
					params := tensor.New(n)
					g.m.Init(rng.New(5), params)
					grad := tensor.New(n)
					grad.Fill(42)
					if _, err := g.fn(params, grad, batch); !errors.Is(err, ErrBadBatch) {
						t.Fatalf("err = %v, want ErrBadBatch", err)
					}
					for i, v := range grad {
						if v != 42 {
							t.Fatalf("grad[%d] = %v written before the batch was rejected", i, v)
						}
					}
					if _, err := g.m.Loss(params, batch); !errors.Is(err, ErrBadBatch) {
						t.Fatalf("loss err = %v, want ErrBadBatch", err)
					}
				})
			}
		}
	}
}

// datasetLen is the number of examples a dataset-backed model is bound to.
func datasetLen(m Model) int {
	switch m := m.(type) {
	case *MLP:
		return m.ds.Len()
	case *Logistic:
		return m.ds.Len()
	case *LinearRegression:
		return m.ds.Len()
	}
	panic(fmt.Sprintf("%T is not dataset-backed", m))
}

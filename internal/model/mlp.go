package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLP is a one-hidden-layer tanh network with a softmax output — the
// non-convex objective standing in for the paper's deep models. Parameter
// layout: W1 (H rows of F) ++ b1 (H) ++ W2 (C rows of H) ++ b2 (C).
// Stateless: safe for concurrent use.
type MLP struct {
	ds     *data.Dataset
	hidden int
}

var (
	_ Classifier   = (*MLP)(nil)
	_ LayeredModel = (*MLP)(nil)
)

// NewMLP binds an MLP with the given hidden width to a classification
// dataset.
func NewMLP(ds *data.Dataset, hidden int) (*MLP, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("model: empty dataset")
	}
	if ds.Classes < 2 {
		return nil, fmt.Errorf("model: %d classes", ds.Classes)
	}
	if hidden < 1 {
		return nil, fmt.Errorf("model: hidden width %d", hidden)
	}
	return &MLP{ds: ds, hidden: hidden}, nil
}

// Dim implements Model.
func (m *MLP) Dim() int {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	return h*f + h + c*h + c
}

// Hidden returns the hidden-layer width.
func (m *MLP) Hidden() int { return m.hidden }

// slices carves the flat parameter vector into layer views.
func (m *MLP) slices(params tensor.Vector) (w1, b1, w2, b2 tensor.Vector) {
	f, h, c := m.ds.Features, m.hidden, m.ds.Classes
	o := 0
	w1 = params[o : o+h*f]
	o += h * f
	b1 = params[o : o+h]
	o += h
	w2 = params[o : o+c*h]
	o += c * h
	b2 = params[o : o+c]
	return w1, b1, w2, b2
}

// forward computes the hidden activations (one row per example) and the
// logits (n × classes) of a block of n examples row-outer: each weight row
// is loaded once and dotted against the whole block while it sits in L1
// (layer 1 against the inputs, layer 2 against the activation rows). Every
// unit is the same single dot product the per-example forward computes, so
// the results are bitwise independent of the blocking.
func (m *MLP) forward(params tensor.Vector, ws *workspace, xs [][]float64) (hidRows [][]float64, logits []float64) {
	f, h, c, n := m.ds.Features, m.hidden, m.ds.Classes, len(xs)
	w1, b1, w2, b2 := m.slices(params)
	ws.hid = grow(ws.hid, n*h)
	ws.probs = grow(ws.probs, n*c)
	ws.dots = grow(ws.dots, n)
	hid, logits, dots := ws.hid, ws.probs, ws.dots
	for j := 0; j < h; j++ {
		tensor.DotN(w1[j*f:(j+1)*f], xs, dots)
		for b, s := range dots {
			hid[b*h+j] = math.Tanh(b1[j] + s)
		}
	}
	ws.hidRows = rowsOf(ws.hidRows, hid, n, h)
	for k := 0; k < c; k++ {
		tensor.DotN(w2[k*h:(k+1)*h], ws.hidRows, dots)
		for b, s := range dots {
			logits[b*c+k] = b2[k] + s
		}
	}
	return ws.hidRows, logits
}

// inputs collects the feature vectors of a batch as kernel operands.
func (m *MLP) inputs(ws *workspace, batch []int) [][]float64 {
	ws.xs = ws.xs[:0]
	for _, idx := range batch {
		ws.xs = append(ws.xs, m.ds.Examples[idx].X)
	}
	return ws.xs
}

// mlpLossBlock is the number of examples Loss pushes through one row-outer
// forward: it bounds the activation workspace on full-dataset evaluations
// while keeping each weight row's reuse high.
const mlpLossBlock = 16

// Loss implements Model. Examples run through the batched forward in
// blocks of mlpLossBlock; the sum stays in batch order.
func (m *MLP) Loss(params tensor.Vector, batch []int) (float64, error) {
	if len(params) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if err := checkBatch(batch, m.ds.Len()); err != nil {
		return 0, err
	}
	c := m.ds.Classes
	ws := getWorkspace()
	defer ws.release()
	var loss float64
	for lo := 0; lo < len(batch); lo += mlpLossBlock {
		block := batch[lo:min(lo+mlpLossBlock, len(batch))]
		_, probs := m.forward(params, ws, m.inputs(ws, block))
		for b, idx := range block {
			loss -= logProb(probs[b*c:(b+1)*c], m.ds.Examples[idx].Label)
		}
	}
	return loss / float64(len(batch)), nil
}

// Gradient implements Model: exact backprop, the layered pass with no
// emissions.
func (m *MLP) Gradient(params, grad tensor.Vector, batch []int) (float64, error) {
	return m.GradientLayers(params, grad, batch, nil)
}

// mlpEmitElems is the target W1 elements per emission block (~128 KiB):
// fine enough that the overlap reducer can put early blocks on the wire
// while later ones compute, coarse enough that per-block loop overhead
// stays negligible.
const mlpEmitElems = 16384

// mlpMaxEmitBlocks caps the W1 block count.
const mlpMaxEmitBlocks = 16

// layer1Blocks returns how many row blocks the layered backward splits W1
// into — a pure function of the architecture, so every rank agrees.
func (m *MLP) layer1Blocks() int {
	r := m.hidden * m.ds.Features / mlpEmitElems
	if r < 1 {
		r = 1
	}
	if r > mlpMaxEmitBlocks {
		r = mlpMaxEmitBlocks
	}
	if r > m.hidden {
		r = m.hidden
	}
	return r
}

// GradientBuckets implements LayeredModel. Backprop finalizes the output
// layer first, so emission order is W2++b2, then W1 in row blocks from the
// top of the parameter range downward (adjacent emitted spans stay
// memory-contiguous for bucket coalescing), and finally b1, which is
// accumulated alongside the W1 blocks and certain only once all of them
// are done.
func (m *MLP) GradientBuckets() []Span {
	f, h := m.ds.Features, m.hidden
	hf := h * f
	spans := make([]Span, 0, m.layer1Blocks()+2)
	spans = append(spans, Span{Lo: hf + h, Hi: m.Dim()}) // W2 ++ b2
	R := m.layer1Blocks()
	for blk := R - 1; blk >= 0; blk-- {
		lo, hi, _ := tensor.ChunkBounds(h, R, blk)
		spans = append(spans, Span{Lo: lo * f, Hi: hi * f})
	}
	return append(spans, Span{Lo: hf, Hi: hf + h}) // b1
}

// GradientLayers implements LayeredModel: exact backprop over the whole
// batch, batch-major. The forward and the output layer run over the batch
// first; W2/b2 are then final and emit. The W1 rows are accumulated from
// the top block down, each row taking the whole batch's contributions
// while it stays in L1, emitting each block as it completes, with b1
// last. Every gradient element still sums its per-example terms in batch
// order with per-example arithmetic, so grad and loss are bitwise the
// per-example backprop's. A nil emit computes the plain gradient.
func (m *MLP) GradientLayers(params, grad tensor.Vector, batch []int, emit func(layer int) error) (float64, error) {
	if len(params) != m.Dim() || len(grad) != m.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	if err := checkBatch(batch, m.ds.Len()); err != nil {
		return 0, err
	}
	if emit == nil {
		emit = func(int) error { return nil }
	}
	grad.Zero()
	f, h, c, n := m.ds.Features, m.hidden, m.ds.Classes, len(batch)
	_, _, w2, _ := m.slices(params)
	gw1, gb1, gw2, gb2 := m.slices(grad)
	ws := getWorkspace()
	defer ws.release()
	xs := m.inputs(ws, batch)
	hidRows, probs := m.forward(params, ws, xs)
	inv := 1 / float64(n)
	var loss float64
	// Output deltas, in place of the probabilities: d = p - onehot(label).
	for b, idx := range batch {
		label := m.ds.Examples[idx].Label
		loss -= logProb(probs[b*c:(b+1)*c], label)
		probs[b*c+label]--
	}
	// Output layer: row k of W2 takes d[b][k]/n times example b's
	// activations, for every example in order.
	ws.coef = grow(ws.coef, h*n)
	coef := ws.coef
	for k := 0; k < c; k++ {
		ck := coef[:n]
		for b := range ck {
			ck[b] = probs[b*c+k] * inv
			gb2[k] += ck[b]
		}
		tensor.AxpyN(gw2[k*h:(k+1)*h], ck, hidRows)
	}
	// Hidden deltas, one example at a time, scattered into coef as the
	// layer-1 coefficients: coef[j*n+b] is example b's scaled delta of unit j.
	ws.w2Rows = rowsOf(ws.w2Rows, w2, c, h)
	ws.deltaH = grow(ws.deltaH, h)
	deltaH := ws.deltaH
	for b := 0; b < n; b++ {
		clear(deltaH)
		tensor.AxpyN(deltaH, probs[b*c:(b+1)*c], ws.w2Rows)
		hb := hidRows[b]
		for j, dj := range deltaH {
			dh := dj * (1 - hb[j]*hb[j])
			coef[j*n+b] = dh * inv
		}
	}
	if err := emit(0); err != nil {
		return 0, err
	}
	R := m.layer1Blocks()
	for blk := R - 1; blk >= 0; blk-- {
		lo, hi, _ := tensor.ChunkBounds(h, R, blk)
		for j := lo; j < hi; j++ {
			cj := coef[j*n : (j+1)*n]
			tensor.AxpyN(gw1[j*f:(j+1)*f], cj, xs)
			for _, v := range cj {
				gb1[j] += v
			}
		}
		if err := emit(R - blk); err != nil {
			return 0, err
		}
	}
	if err := emit(R + 1); err != nil {
		return 0, err
	}
	return loss * inv, nil
}

// Init implements Model: Xavier-style scaled Gaussians.
func (m *MLP) Init(src *rng.Source, params tensor.Vector) {
	f, h := m.ds.Features, m.hidden
	w1, b1, w2, b2 := m.slices(params)
	s1 := 1 / math.Sqrt(float64(f))
	for i := range w1 {
		w1[i] = src.Normal(0, s1)
	}
	b1.Zero()
	s2 := 1 / math.Sqrt(float64(h))
	for i := range w2 {
		w2[i] = src.Normal(0, s2)
	}
	b2.Zero()
}

// Accuracy implements Classifier.
func (m *MLP) Accuracy(params tensor.Vector, batch []int, k int) (float64, float64, error) {
	if len(params) != m.Dim() {
		return 0, 0, tensor.ErrShapeMismatch
	}
	ws := getWorkspace()
	defer ws.release()
	return accuracy(batch, m.ds, k, func(x tensor.Vector, scores []float64) {
		ws.xs = append(ws.xs[:0], x)
		_, logits := m.forward(params, ws, ws.xs)
		copy(scores, logits)
	})
}

package model

import "sync"

// workspace holds the per-call scratch buffers of the model hot paths
// (hidden activations, class probabilities, backprop deltas, ranking
// order). Calls borrow one from a shared pool instead of allocating —
// or, worse, sharing buffers across goroutines — which is what makes
// Loss/Gradient/Accuracy safe for the engine's concurrent per-worker
// fan-out. Every buffer is fully (re)written before it is read, so pooled
// reuse cannot leak values between calls.
type workspace struct {
	hid    []float64
	probs  []float64
	deltaH []float64
	dots   []float64
	// coef holds the MLP backward's per-example coefficients: one output
	// row's scaled deltas, then the layer-1 scaled deltas (hidden × batch).
	coef  []float64
	order []int
	// xs, hidRows and w2Rows are the operand lists of the multi-operand
	// kernels: the batch's inputs, its activation rows and the W2 rows.
	xs, hidRows, w2Rows [][]float64
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

func getWorkspace() *workspace { return wsPool.Get().(*workspace) }

// release returns ws to the pool, first dropping the operand lists'
// references into caller-owned inputs and parameters so a pooled
// workspace never keeps them alive.
func (ws *workspace) release() {
	clear(ws.xs[:cap(ws.xs)])
	clear(ws.w2Rows[:cap(ws.w2Rows)])
	wsPool.Put(ws)
}

// grow returns buf resized to n elements, reallocating only when capacity
// is insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// growInts is grow for index buffers.
func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// rowsOf returns buf filled with the n consecutive rows of length cols
// that make up m.
func rowsOf(buf [][]float64, m []float64, n, cols int) [][]float64 {
	buf = buf[:0]
	for r := 0; r < n; r++ {
		buf = append(buf, m[r*cols:(r+1)*cols])
	}
	return buf
}

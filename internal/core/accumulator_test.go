package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestAccumulatorEmptyTake(t *testing.T) {
	a, err := NewAccumulator(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, ok, err := a.Take(5)
	if err != nil {
		t.Fatal(err)
	}
	if ok || g != nil {
		t.Errorf("empty Take = (%v,%v)", g, ok)
	}
	if _, found := a.OldestIter(); found {
		t.Error("OldestIter on empty should report false")
	}
}

func TestAccumulatorSingleGradientIdentity(t *testing.T) {
	a, err := NewAccumulator(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.FromSlice([]float64{3, -1})
	if err := a.Put(7, g); err != nil {
		t.Fatal(err)
	}
	g[0] = 99 // Put must copy
	out, ok, err := a.Take(7)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Take reported empty")
	}
	if !out.Equal(tensor.FromSlice([]float64{3, -1}), 1e-12) {
		t.Errorf("Take = %v", out)
	}
	if a.Len() != 0 {
		t.Error("buffer not cleared after Take")
	}
}

func TestAccumulatorWeightedAveragePaperFormula(t *testing.T) {
	// Two gradients at iterations t and t+1, taken at k=t+1. τ = 1, so
	// weights are [t−(k−τ)+1] = [1] for the old and [2] for the new:
	// g' = (1·g_t + 2·g_{t+1})/3.
	a, err := NewAccumulator(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(4, tensor.FromSlice([]float64{3})); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(5, tensor.FromSlice([]float64{9})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("empty")
	}
	want := (1.0*3 + 2.0*9) / 3
	if out[0] != want {
		t.Errorf("weighted reduce = %v, want %v", out[0], want)
	}
}

func TestAccumulatorThreeWayWeights(t *testing.T) {
	// Gradients at iterations 2,3,4 taken at k=4: weights 1,2,3.
	a, err := NewAccumulator(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{10, 20, 30} {
		if err := a.Put(int64(2+i), tensor.FromSlice([]float64{v})); err != nil {
			t.Fatal(err)
		}
	}
	out, ok, err := a.Take(4)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	want := (1.0*10 + 2.0*20 + 3.0*30) / 6
	if out[0] != want {
		t.Errorf("= %v, want %v", out[0], want)
	}
}

func TestAccumulatorBoundDropsStale(t *testing.T) {
	a, err := NewAccumulator(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{100})); err != nil { // stale at k=2 (gap 2 ≥ bound 2)
		t.Fatal(err)
	}
	if err := a.Put(2, tensor.FromSlice([]float64{5})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(2)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 5 {
		t.Errorf("stale gradient leaked into reduce: %v", out[0])
	}
	if a.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", a.Dropped())
	}
}

func TestAccumulatorAllStale(t *testing.T) {
	a, err := NewAccumulator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{1})); err != nil {
		t.Fatal(err)
	}
	_, ok, err := a.Take(10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("all-stale buffer should report no contribution")
	}
	if a.Dropped() != 1 {
		t.Errorf("Dropped = %d", a.Dropped())
	}
}

func TestAccumulatorUnboundedKeepsAll(t *testing.T) {
	a, err := NewAccumulator(1, 0) // unbounded
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.FromSlice([]float64{1})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(1000)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 1 {
		t.Errorf("= %v", out[0])
	}
}

func TestAccumulatorCurrentIterationNotDropped(t *testing.T) {
	// A gradient from the current iteration (gap 0) must survive even
	// with bound 1.
	a, err := NewAccumulator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(3, tensor.FromSlice([]float64{7})); err != nil {
		t.Fatal(err)
	}
	out, ok, err := a.Take(3)
	if err != nil || !ok {
		t.Fatalf("Take = (%v,%v)", ok, err)
	}
	if out[0] != 7 {
		t.Errorf("= %v", out[0])
	}
}

func TestAccumulatorOldestIter(t *testing.T) {
	a, err := NewAccumulator(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int64{5, 3, 8} {
		if err := a.Put(it, tensor.FromSlice([]float64{1})); err != nil {
			t.Fatal(err)
		}
	}
	oldest, found := a.OldestIter()
	if !found || oldest != 3 {
		t.Errorf("OldestIter = (%d,%v), want (3,true)", oldest, found)
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestAccumulatorErrors(t *testing.T) {
	if _, err := NewAccumulator(0, 1); err == nil {
		t.Error("dim 0 should error")
	}
	a, err := NewAccumulator(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(0, tensor.New(3)); err == nil {
		t.Error("shape mismatch should error")
	}
}

// Property: the weighted reduce lies in the convex hull of the inputs
// (coordinate-wise between min and max).
func TestQuickAccumulatorConvexHull(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		if len(vals) == 0 || len(vals) > 10 {
			return true
		}
		for _, v := range vals {
			if v != v || v > 1e100 || v < -1e100 {
				return true
			}
		}
		a, err := NewAccumulator(1, 0)
		if err != nil {
			return false
		}
		min, max := vals[0], vals[0]
		for i, v := range vals {
			if err := a.Put(int64(i), tensor.FromSlice([]float64{v})); err != nil {
				return false
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		out, ok, err := a.Take(int64(len(vals) - 1))
		if err != nil || !ok {
			return false
		}
		const eps = 1e-9
		return out[0] >= min-eps*(1+absf(min)) && out[0] <= max+eps*(1+absf(max))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestAccumulatorTakeReusesBuffer: Take writes the weighted mean into one
// reused buffer with tensor.WeightedMean's exact operation order (bitwise
// equal), and a steady-state Put/Take cycle allocates nothing.
func TestAccumulatorTakeReusesBuffer(t *testing.T) {
	const dim = 1000
	a, err := NewAccumulator(dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]tensor.Vector, 3)
	for i := range grads {
		grads[i] = tensor.New(dim)
		for j := range grads[i] {
			grads[i][j] = float64((i+1)*(j+3)%17) / 7
		}
	}
	var first tensor.Vector
	for k := int64(0); k < 4; k++ {
		for i, g := range grads {
			if err := a.Put(k-int64(len(grads)-1-i), g); err != nil {
				t.Fatal(err)
			}
		}
		out, ok, err := a.Take(k)
		if err != nil || !ok {
			t.Fatalf("Take(%d) = %v, %v", k, ok, err)
		}
		// Iterations k−2, k−1, k at τ = 2 weigh 1, 2, 3.
		want, err := tensor.WeightedMean(grads, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
				t.Fatalf("Take(%d)[%d] = %v, WeightedMean gives %v", k, j, out[j], want[j])
			}
		}
		if first == nil {
			first = out
		} else if &out[0] != &first[0] {
			t.Fatalf("Take(%d) returned a fresh buffer", k)
		}
		out.Fill(-1) // the caller owns the buffer until the next Take
	}
	k := int64(10)
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.Put(k, grads[0])
		_ = a.Put(k, grads[1])
		if _, ok, err := a.Take(k); !ok || err != nil {
			t.Fatal("steady-state Take failed")
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("steady-state Put/Take allocates %v times per cycle, want 0", allocs)
	}
}

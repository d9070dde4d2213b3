package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The unrolled kernels perform exactly one FP op per element in index order,
// so everything except Dot (multi-accumulator) must be bit-identical to the
// obvious scalar loop. Lengths 0..17 cover every unroll tail; the large
// length exercises the steady-state body.

func randVec(rng *rand.Rand, n int) Vector {
	v := New(n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := make([]int, 0, 20)
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1000, 4097)
	for _, n := range lengths {
		a := randVec(rng, n)
		b := randVec(rng, n)
		c := rng.Float64() - 0.5

		add := a.Clone()
		addVec(add, b)
		sub := a.Clone()
		subVec(sub, b)
		scale := a.Clone()
		scaleVec(scale, c)
		axpy := a.Clone()
		axpyVec(axpy, c, b)
		avg := a.Clone()
		avgVec(avg, b)

		for i := 0; i < n; i++ {
			if got, want := add[i], a[i]+b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("addVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := sub[i], a[i]-b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("subVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := scale[i], a[i]*c; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scaleVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := axpy[i], a[i]+float64(c*b[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("axpyVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := avg[i], (a[i]+b[i])/2; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("avgVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
		}
	}
}

// dotLanes is dotVec's arithmetic written out: lane i%4 sums the products of
// the four-element body, the lanes fold as (s0+s1)+(s2+s3), and the tail
// products are added to that in order. The float64() conversions keep the
// compiler from fusing a product into its sum.
func dotLanes(a, b []float64) float64 {
	var lanes [4]float64
	body := len(a) - len(a)%4
	for i := 0; i < body; i++ {
		lanes[i%4] += float64(a[i] * b[i])
	}
	s := (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
	for i := body; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// TestDotMatchesScalar pins Dot and the portable dotVec, bit for bit, to
// the explicit four-lane reference: the lane assignment and the fold are
// part of the contract every gradient digest depends on.
func TestDotMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1000, 4097} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		want := dotLanes(a, b)
		if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dot n=%d: got %v, want %v", n, got, want)
		}
		if got := dotVecGeneric(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dotVecGeneric n=%d: got %v, want %v", n, got, want)
		}
	}
}

// TestMultiOperandKernelsMatchRepeated: DotN and AxpyN are bitwise equal
// to the repeated Dot and Axpy calls they replace, for every unroll tail of
// the row length and for odd and even operand counts that fall short of,
// fill and overflow the operand blocks.
func TestMultiOperandKernelsMatchRepeated(t *testing.T) {
	type testCase struct {
		name     string
		length   int // row length
		operands int
	}
	var testCases []testCase
	lengths := []int{127, 128, 129}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, k := range []int{0, 1, 2, 3, 5, 7, 8, 9, 11, 16, 17} {
			testCases = append(testCases, testCase{fmt.Sprintf("len%d/operands%d", n, k), n, k})
		}
	}

	rng := rand.New(rand.NewSource(13))
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			a := randVec(rng, tc.length)
			vs := make([][]float64, tc.operands)
			c := make([]float64, tc.operands)
			for i := range vs {
				vs[i] = randVec(rng, tc.length+i%2) // operands may be longer than a
				c[i] = rng.Float64() - 0.5
			}

			dots := make([]float64, tc.operands)
			DotN(a, vs, dots)
			for i, v := range vs {
				if got, want := dots[i], Dot(a, v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("DotN operand %d = %v, Dot gives %v", i, got, want)
				}
			}

			got := a.Clone()
			AxpyN(got, c, vs)
			want := a.Clone()
			for i, v := range vs {
				Axpy(want, c[i], v)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("AxpyN element %d = %v, repeated Axpy gives %v", i, got[i], want[i])
				}
			}
		})
	}
}

// BenchmarkTensorKernels covers the hot kernels the ring, accumulator, and
// optimizer lean on.
func BenchmarkTensorKernels(b *testing.B) {
	const dim = 1 << 16
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, dim)
	y := randVec(rng, dim)
	b.Run("Add", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			addVec(x, y)
		}
	})
	b.Run("Scale", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			scaleVec(x, 1.0000001)
		}
	})
	b.Run("AddScaled", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			axpyVec(x, 0.999, y)
		}
	})
	b.Run("Dot", func(b *testing.B) {
		b.SetBytes(dim * 8)
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += dotVec(x, y)
		}
		_ = sink
	})
	// The model's batch-major backprop shapes: one 128-wide row against a
	// block of 8 examples, as 8 single-operand calls and as one
	// multi-operand call.
	const row, ops = 128, 8
	a := randVec(rng, row)
	vs := make([][]float64, ops)
	for i := range vs {
		vs[i] = randVec(rng, row)
	}
	c := randVec(rng, ops)
	out := make([]float64, ops)
	b.Run("DotRepeated", func(b *testing.B) {
		b.SetBytes(row * ops * 8)
		for i := 0; i < b.N; i++ {
			for t, v := range vs {
				out[t] = dotVec(a, v)
			}
		}
	})
	b.Run("DotN", func(b *testing.B) {
		b.SetBytes(row * ops * 8)
		for i := 0; i < b.N; i++ {
			DotN(a, vs, out)
		}
	})
	b.Run("AxpyRepeated", func(b *testing.B) {
		b.SetBytes(row * ops * 8)
		for i := 0; i < b.N; i++ {
			for t, v := range vs {
				axpyVec(a, c[t]*1e-9, v)
			}
		}
	})
	b.Run("AxpyN", func(b *testing.B) {
		b.SetBytes(row * ops * 8)
		for i := 0; i < b.N; i++ {
			AxpyN(a, c, vs)
		}
	})
	b.Run("Twin", benchKernelTwins)
}

// benchSink keeps benchmarked results live.
var benchSink float64

// benchKernelTwins times each kernel with an assembly implementation
// against its portable twin at a short row, the model's 128-wide row and
// the dense benchmark's 140296 parameters (MomentumStep there is one
// optimizer step of that workload). The asm cases are skipped where the
// assembly does not build (off amd64, -race).
func benchKernelTwins(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	impls := []struct {
		name   string
		asm    bool
		dot    func(a, b []float64) float64
		dot2   func(a, x, y []float64) (float64, float64)
		axpy   func(a []float64, c float64, b []float64)
		axpy8  func(a []float64, c []float64, vs [][]float64)
		moment func(params, vel, grad []float64, mu, wd, lr float64)
	}{
		{"asm", true, dotVec, dot2Vec, axpyVec, axpy8Vec, momentumVec},
		{"portable", false, dotVecGeneric, dot2VecGeneric, axpyVecGeneric, axpy8VecGeneric, momentumVecGeneric},
	}
	for _, n := range []int{16, 128, 140296} {
		a, x, y := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		vs := make([][]float64, 8)
		for i := range vs {
			vs[i] = randVec(rng, n)
		}
		c := randVec(rng, 8)
		c.Scale(1e-9) // keep a bounded over many iterations
		vel := randVec(rng, n)
		for _, impl := range impls {
			run := func(kernel string, bytes int, body func()) {
				b.Run(fmt.Sprintf("%s/len%d/%s", kernel, n, impl.name), func(b *testing.B) {
					if impl.asm && !asmKernels {
						b.Skip("no assembly kernels in this build")
					}
					b.SetBytes(int64(bytes))
					for i := 0; i < b.N; i++ {
						body()
					}
				})
			}
			run("Dot", 16*n, func() { benchSink = impl.dot(a, x) })
			run("Dot2", 24*n, func() { benchSink, _ = impl.dot2(a, x, y) })
			run("Axpy", 24*n, func() { impl.axpy(a, 1e-9, x) })
			run("Axpy8", 80*n, func() { impl.axpy8(a, c, vs) })
			run("MomentumStep", 40*n, func() { impl.moment(a, vel, x, 0.9, 1e-4, 1e-3) })
		}
	}
}

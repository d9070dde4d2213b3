package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels with an assembly implementation (dotVec, dot2Vec, axpyVec,
// axpy8Vec, momentumVec) must be bitwise equal to their portable twins.
// Where the assembly does not build (off amd64, -race), both sides are the
// portable kernel and the checks hold trivially.

// sameBits reports whether got and want are the same float64 bit for bit,
// or both NaN: NaN payloads may differ with operand order, NaN-ness not.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// extremeValues are the inputs most likely to expose a changed rounding,
// operation order or sign: signed zeros, infinities, subnormals, and
// magnitudes whose products overflow or underflow.
var extremeValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, -0x1.8p-1030, 0x1p-1022, // subnormal, subnormal, smallest normal
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300, 0x1p511, 0x1p-537,
}

// fillKernelValues fills v according to one of the test value classes.
func fillKernelValues(rng *rand.Rand, v []float64, class string) {
	for i := range v {
		switch class {
		case "random":
			v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		case "zeros":
			v[i] = 0
			if rng.Intn(2) == 0 {
				v[i] = math.Copysign(0, -1)
			}
		case "extreme":
			v[i] = extremeValues[rng.Intn(len(extremeValues))]
			if rng.Intn(3) == 0 {
				v[i] = rng.NormFloat64()
			}
		case "nan":
			v[i] = rng.NormFloat64()
			if rng.Intn(16) == 0 {
				v[i] = math.NaN()
			}
		default:
			panic("unknown value class " + class)
		}
	}
}

// kernelOperand is a test operand: buf[off:off+n] is the slice a kernel
// sees. off = 1 misaligns it against buf's allocation, and every slot of
// buf outside the slice holds a NaN guard, so a kernel that reads past
// len(a) returns NaN where its portable twin does not, and one that writes
// past it changes a guard.
type kernelOperand struct {
	buf    []float64
	off, n int
}

func newKernelOperand(rng *rand.Rand, n, off, extra int, class string) kernelOperand {
	buf := make([]float64, off+n+extra+1)
	for i := range buf {
		buf[i] = math.NaN()
	}
	fillKernelValues(rng, buf[off:off+n+extra], class)
	return kernelOperand{buf, off, n + extra}
}

func (o kernelOperand) s() []float64 { return o.buf[o.off : o.off+o.n] }

func (o kernelOperand) clone() kernelOperand {
	o.buf = append([]float64(nil), o.buf...)
	return o
}

// kernelInputs holds one set of operands for every kernel: the row a, the
// dot operands x, y, the eight AxpyN operands and coefficients, and the
// optimizer's params, velocity, gradient and scalars.
type kernelInputs struct {
	a, x, y          kernelOperand
	vs               [8]kernelOperand
	c                [8]float64
	params, vel, grd kernelOperand
	mu, wd, lr       float64
}

// checkKernelsMatchPortable runs every assembly kernel and its portable
// twin on in and reports the first difference in a result or in any
// element of an operand buffer.
func checkKernelsMatchPortable(t *testing.T, in kernelInputs) {
	t.Helper()
	a := in.a.s()
	if got, want := dotVec(a, in.x.s()), dotVecGeneric(a, in.x.s()); !sameBits(got, want) {
		t.Fatalf("dotVec = %v, portable %v", got, want)
	}
	gs, gu := dot2Vec(a, in.x.s(), in.y.s())
	ws, wu := dot2VecGeneric(a, in.x.s(), in.y.s())
	if !sameBits(gs, ws) || !sameBits(gu, wu) {
		t.Fatalf("dot2Vec = (%v, %v), portable (%v, %v)", gs, gu, ws, wu)
	}

	got, want := in.a.clone(), in.a.clone()
	axpyVec(got.s(), in.c[0], in.x.s())
	axpyVecGeneric(want.s(), in.c[0], in.x.s())
	compareBuffers(t, "axpyVec", got.buf, want.buf)

	vs := make([][]float64, 8)
	for k := range vs {
		vs[k] = in.vs[k].s()
	}
	got, want = in.a.clone(), in.a.clone()
	axpy8Vec(got.s(), in.c[:], vs)
	axpy8VecGeneric(want.s(), in.c[:], vs)
	compareBuffers(t, "axpy8Vec", got.buf, want.buf)

	gp, gv := in.params.clone(), in.vel.clone()
	wp, wv := in.params.clone(), in.vel.clone()
	momentumVec(gp.s(), gv.s(), in.grd.s(), in.mu, in.wd, in.lr)
	momentumVecGeneric(wp.s(), wv.s(), in.grd.s(), in.mu, in.wd, in.lr)
	compareBuffers(t, "momentumVec params", gp.buf, wp.buf)
	compareBuffers(t, "momentumVec velocity", gv.buf, wv.buf)
}

func compareBuffers(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: buffer element %d = %v, portable %v", kernel, i, got[i], want[i])
		}
	}
}

// TestKernelsMatchPortable compares every assembly kernel with its portable
// twin, bit for bit, across every unroll tail, the model's row widths and
// the dense benchmark's parameter count; aligned, misaligned and
// longer-than-a operands; and ordinary, signed-zero, extreme and NaN
// values.
func TestKernelsMatchPortable(t *testing.T) {
	type testCase struct {
		name   string
		length int
		off    int // 1 misaligns every operand by one element
		extra  int // elements every operand but a and params has past len(a)
		class  string
	}
	lengths := []int{127, 128, 129, 140296}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	layouts := []struct {
		name       string
		off, extra int
	}{{"aligned", 0, 0}, {"offset", 1, 0}, {"longer", 0, 3}}
	var testCases []testCase
	for _, n := range lengths {
		for _, l := range layouts {
			for _, class := range []string{"random", "zeros", "extreme", "nan"} {
				testCases = append(testCases, testCase{
					name:   fmt.Sprintf("len%d/%s/%s", n, l.name, class),
					length: n, off: l.off, extra: l.extra, class: class,
				})
			}
		}
	}

	rng := rand.New(rand.NewSource(17))
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			operand := func(extra int) kernelOperand {
				return newKernelOperand(rng, tc.length, tc.off, extra, tc.class)
			}
			in := kernelInputs{
				a: operand(0), x: operand(tc.extra), y: operand(tc.extra),
				params: operand(0), vel: operand(tc.extra), grd: operand(tc.extra),
			}
			for k := range in.vs {
				in.vs[k] = operand(tc.extra)
			}
			scalars := make([]float64, len(in.c)+3)
			fillKernelValues(rng, scalars, tc.class)
			copy(in.c[:], scalars)
			in.mu, in.wd, in.lr = scalars[8], scalars[9], scalars[10]
			checkKernelsMatchPortable(t, in)
		})
	}
}

// FuzzKernelsMatchPortable feeds raw float64 bit patterns to every
// assembly kernel and its portable twin. raw is read as little-endian
// float64s and cycled to fill each operand from its own starting point;
// shift misaligns the operands (bit 0) and lengthens the non-row operands
// (bits 1–2).
func FuzzKernelsMatchPortable(f *testing.F) {
	seed := func(n uint16, shift uint8, vals ...float64) {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(raw, n, shift)
	}
	seed(0, 0)
	seed(3, 1, 1.5, -2.25)
	seed(17, 6, 0.5, -0.25, 3, 1e-3, -7)
	seed(129, 3, extremeValues...)
	seed(64, 2, math.NaN(), 1, math.Inf(1), math.Copysign(0, -1), 0x1p-1060)
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, shift uint8) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		length := int(n % 300)
		off, extra := int(shift&1), int(shift>>1&3)
		next := 0
		operand := func(extra int) kernelOperand {
			o := kernelOperand{buf: make([]float64, off+length+extra+1), off: off, n: length + extra}
			for i := range o.buf {
				o.buf[i] = math.NaN()
			}
			start := next
			next++
			for i := range o.s() {
				o.s()[i] = vals[(start+i)%len(vals)]
			}
			return o
		}
		scalar := func() float64 {
			next++
			return vals[next%len(vals)]
		}
		in := kernelInputs{
			a: operand(0), x: operand(extra), y: operand(extra),
			params: operand(0), vel: operand(extra), grd: operand(extra),
		}
		for k := range in.vs {
			in.vs[k] = operand(extra)
			in.c[k] = scalar()
		}
		in.mu, in.wd, in.lr = scalar(), scalar(), scalar()
		checkKernelsMatchPortable(t, in)
	})
}

// TestKernelsPanicOnShortOperand: every entry point into the kernels
// panics, before touching memory, when an operand is shorter than the row
// it is combined with.
func TestKernelsPanicOnShortOperand(t *testing.T) {
	const n = 9
	row := func() []float64 { return make([]float64, n) }
	short := func() []float64 { return make([]float64, n-1) }
	operands := func(k int, shortAt int) [][]float64 {
		vs := make([][]float64, k)
		for i := range vs {
			vs[i] = row()
		}
		vs[shortAt] = short()
		return vs
	}
	testCases := []struct {
		name string
		call func()
	}{
		{"Dot", func() { Dot(row(), short()) }},
		{"Axpy", func() { Axpy(row(), 2, short()) }},
		{"DotN/one", func() { DotN(row(), operands(1, 0), make([]float64, 1)) }},
		{"DotN/pair-first", func() { DotN(row(), operands(2, 0), make([]float64, 2)) }},
		{"DotN/pair-second", func() { DotN(row(), operands(2, 1), make([]float64, 2)) }},
		{"DotN/short-out", func() { DotN(row(), operands(3, 0)[1:], make([]float64, 1)) }},
		{"AxpyN/one", func() { AxpyN(row(), make([]float64, 1), operands(1, 0)) }},
		{"AxpyN/block-last", func() { AxpyN(row(), make([]float64, 8), operands(8, 7)) }},
		{"AxpyN/block-first", func() { AxpyN(row(), make([]float64, 9), operands(9, 0)) }},
		{"AxpyN/short-coefficients", func() { AxpyN(row(), make([]float64, 7), operands(9, 8)[:8]) }},
		{"MomentumStep/velocity", func() { MomentumStep(row(), short(), row(), 0.9, 0.1, 0.01) }},
		{"MomentumStep/gradient", func() { MomentumStep(row(), row(), short(), 0.9, 0.1, 0.01) }},
	}
	for _, tc := range testCases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with a short operand did not panic", tc.name)
				}
			}()
			tc.call()
		})
	}
}

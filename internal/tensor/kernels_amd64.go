//go:build amd64 && !race

package tensor

// SSE2 kernels (kernels_amd64.s). SSE2 is part of the amd64 baseline
// (GOAMD64=v1), so no CPU feature check and no fallback is needed. Each
// wrapper re-slices every operand to len(a) first: a short operand panics
// here exactly as it does in the portable kernel, and the assembly, which
// walks len(a) elements of each operand, reads only in-bounds memory.
// Operands may be the same slice as a, but must not otherwise overlap it.

// asmKernels reports whether the kernels below run as assembly.
const asmKernels = true

//go:noescape
func dotSSE2(a, b []float64) float64

//go:noescape
func dot2SSE2(a, x, y []float64) (s, u float64)

//go:noescape
func axpySSE2(a []float64, c float64, b []float64)

//go:noescape
func axpy8SSE2(a []float64, c []float64, vs [][]float64)

//go:noescape
func momentumSSE2(params, vel, grad []float64, mu, wd, lr float64)

func dotVec(a, b []float64) float64 { return dotSSE2(a, b[:len(a)]) }

func dot2Vec(a, x, y []float64) (float64, float64) {
	return dot2SSE2(a, x[:len(a)], y[:len(a)])
}

func axpyVec(a []float64, c float64, b []float64) { axpySSE2(a, c, b[:len(a)]) }

func axpy8Vec(a []float64, c []float64, vs [][]float64) {
	c, vs = c[:8], vs[:8]
	for _, v := range vs {
		_ = v[:len(a)]
	}
	axpy8SSE2(a, c, vs)
}

func momentumVec(params, vel, grad []float64, mu, wd, lr float64) {
	momentumSSE2(params, vel[:len(params)], grad[:len(params)], mu, wd, lr)
}

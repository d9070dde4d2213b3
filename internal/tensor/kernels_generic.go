//go:build !amd64 || race

package tensor

// Off amd64, and in -race builds on amd64, the portable kernels are the
// only implementation: the race detector cannot see memory accesses made
// by assembly.

// asmKernels reports whether the kernels below run as assembly.
const asmKernels = false

func dotVec(a, b []float64) float64 { return dotVecGeneric(a, b) }

func dot2Vec(a, x, y []float64) (float64, float64) { return dot2VecGeneric(a, x, y) }

func axpyVec(a []float64, c float64, b []float64) { axpyVecGeneric(a, c, b) }

func axpy8Vec(a []float64, c []float64, vs [][]float64) { axpy8VecGeneric(a, c, vs) }

func momentumVec(params, vel, grad []float64, mu, wd, lr float64) {
	momentumVecGeneric(params, vel, grad, mu, wd, lr)
}

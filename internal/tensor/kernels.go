package tensor

// Unrolled element-wise kernels. Every hot loop in the repository — the ring
// reduce, the accumulator's weighted mean, the SGD update, the model's
// forward and backward passes — bottoms out in one of these. The 4-way
// unrolling shortens the loop-carried dependency chain and lets the
// compiler keep four elements in flight per iteration; the explicit
// re-slice (`b = b[:len(a)]`) eliminates bounds checks in the body.
// Pairwise FP addition is commutative bitwise, so addVec/subVec keep
// results bit-identical to the naive loops they replace.
//
// The five hottest kernels — dotVec, dot2Vec, axpyVec, axpy8Vec and
// momentumVec — have two implementations with the same bits. On amd64,
// SSE2 assembly (kernels_amd64.s) does two elements per instruction, with
// dotVec's four accumulator lanes s0..s3 held as two registers (s0,s1) and
// (s2,s3); MULPD/ADDPD round every lane exactly as MULSD/ADDSD do, and
// neither path fuses a multiply into an add or reorders a sum. The pure-Go
// kernels below (the *Generic functions) run everywhere else and in -race
// builds, whose detector cannot see memory touched by assembly; they are
// also the oracle the assembly is tested against. Their explicit float64()
// conversions round every product before it is added, so the compiler may
// not fuse the two into an FMA (it otherwise does on arm64), and these
// kernels give the same bits on every architecture.

// addVec computes a[i] += b[i].
func addVec(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] += b[i]
		a[i+1] += b[i+1]
		a[i+2] += b[i+2]
		a[i+3] += b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] += b[i]
	}
}

// subVec computes a[i] -= b[i].
func subVec(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] -= b[i]
		a[i+1] -= b[i+1]
		a[i+2] -= b[i+2]
		a[i+3] -= b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] -= b[i]
	}
}

// scaleVec computes a[i] *= c.
func scaleVec(a []float64, c float64) {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] *= c
		a[i+1] *= c
		a[i+2] *= c
		a[i+3] *= c
	}
	for ; i < len(a); i++ {
		a[i] *= c
	}
}

// avgVec computes a[i] = (a[i]+b[i])/2 — the parameter-server Average mode
// fused into one pass. The expression matches the scalar loop it replaces
// exactly (add, then halve), so results stay bit-identical.
func avgVec(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] = (a[i] + b[i]) / 2
		a[i+1] = (a[i+1] + b[i+1]) / 2
		a[i+2] = (a[i+2] + b[i+2]) / 2
		a[i+3] = (a[i+3] + b[i+3]) / 2
	}
	for ; i < len(a); i++ {
		a[i] = (a[i] + b[i]) / 2
	}
}

// sumTo computes dst[i] = a[i] + b[i] in one pass — the out-of-place fused
// form of addVec, bit-identical to clone-then-add.
func sumTo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// avgTo computes dst[i] = (a[i]+b[i])/2 in one pass — the out-of-place
// fused form of avgVec, bit-identical to clone-then-average.
func avgTo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = (a[i] + b[i]) / 2
		dst[i+1] = (a[i+1] + b[i+1]) / 2
		dst[i+2] = (a[i+2] + b[i+2]) / 2
		dst[i+3] = (a[i+3] + b[i+3]) / 2
	}
	for ; i < len(dst); i++ {
		dst[i] = (a[i] + b[i]) / 2
	}
}

// axpyVecGeneric computes a[i] += c*b[i], the multiply-add behind
// AddScaled.
func axpyVecGeneric(a []float64, c float64, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] += float64(c * b[i])
		a[i+1] += float64(c * b[i+1])
		a[i+2] += float64(c * b[i+2])
		a[i+3] += float64(c * b[i+3])
	}
	for ; i < len(a); i++ {
		a[i] += float64(c * b[i])
	}
}

// Axpy computes a[i] += c*b[i] over raw slices with no shape checking — the
// unchecked form of Vector.AddScaled for hot loops (model backprop) whose
// slice lengths are fixed by construction. b must be at least as long as a.
func Axpy(a []float64, c float64, b []float64) { axpyVec(a, c, b) }

// Dot returns Σ a[i]*b[i] over raw slices with no shape checking — the
// unchecked form of Vector.Dot for hot loops. b must be at least as long
// as a.
func Dot(a, b []float64) float64 { return dotVec(a, b) }

// dotVecGeneric returns Σ a[i]*b[i] using four independent accumulators,
// breaking the serial-add dependency chain: lane j sums the products of the
// elements i ≡ j (mod 4) of the unrolled body, the lanes fold as
// (s0+s1)+(s2+s3), and the 0–3 tail products are added to that in order.
// The summation order differs from a naive left-to-right fold by at most
// the usual FP reassociation error.
func dotVecGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// Multi-operand kernels. The batch-major model backprop applies one row to
// a whole block of examples while the row is hot in L1: DotN dots one row
// against many vectors, AxpyN accumulates many scaled vectors into one row.
// Each output keeps exactly the arithmetic of the single-operand kernel it
// replaces — dotVec's four lanes and final fold per output, and AxpyN's
// terms applied one after another per element — so both are bitwise equal
// to the repeated Dot/Axpy calls; they only load the shared row once per
// block of operands instead of once per operand.

// DotN writes out[t] = Dot(a, vs[t]) for every operand t, two operands per
// pass over a. Every vs[t] must be at least as long as a, and out at least
// as long as vs.
func DotN(a []float64, vs [][]float64, out []float64) {
	out = out[:len(vs)]
	t := 0
	for ; t+2 <= len(vs); t += 2 {
		out[t], out[t+1] = dot2Vec(a, vs[t], vs[t+1])
	}
	if t < len(vs) {
		out[t] = dotVec(a, vs[t])
	}
}

// dot2VecGeneric returns (dotVec(a, x), dotVec(a, y)) with a loaded once:
// each output has its own four lanes, folded exactly as dotVec folds them.
// The capped four-element windows let the compiler drop every bounds check
// in the body.
func dot2VecGeneric(a, x, y []float64) (float64, float64) {
	x = x[:len(a)]
	y = y[:len(a)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	i := 0
	for ; i < len(a)-3; i += 4 {
		ab := a[i : i+4 : i+4]
		xb := x[i : i+4 : i+4]
		yb := y[i : i+4 : i+4]
		s0 += float64(ab[0] * xb[0])
		s1 += float64(ab[1] * xb[1])
		s2 += float64(ab[2] * xb[2])
		s3 += float64(ab[3] * xb[3])
		t0 += float64(ab[0] * yb[0])
		t1 += float64(ab[1] * yb[1])
		t2 += float64(ab[2] * yb[2])
		t3 += float64(ab[3] * yb[3])
	}
	s := (s0 + s1) + (s2 + s3)
	u := (t0 + t1) + (t2 + t3)
	for ; i < len(a); i++ {
		s += float64(a[i] * x[i])
		u += float64(a[i] * y[i])
	}
	return s, u
}

// AxpyN computes a[i] += c[t]*vs[t][i] for t = 0, 1, ..., len(vs)-1 in
// that order — bitwise the same as calling Axpy(a, c[t], vs[t]) for each t
// in turn — loading and storing a once per block of eight operands; the
// operands past the last full block go through Axpy one at a time. Every
// vs[t] must be at least as long as a, and c at least as long as vs.
func AxpyN(a []float64, c []float64, vs [][]float64) {
	c = c[:len(vs)]
	t := 0
	for ; t+8 <= len(vs); t += 8 {
		axpy8Vec(a, c[t:t+8], vs[t:t+8])
	}
	for ; t < len(vs); t++ {
		axpyVec(a, c[t], vs[t])
	}
}

// axpy8VecGeneric applies eight AxpyN terms in order per element, with a[i]
// kept in a register across them.
func axpy8VecGeneric(a []float64, c []float64, vs [][]float64) {
	c, vs = c[:8], vs[:8]
	c0, c1, c2, c3, c4, c5, c6, c7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
	v0, v1, v2, v3 := vs[0][:len(a)], vs[1][:len(a)], vs[2][:len(a)], vs[3][:len(a)]
	v4, v5, v6, v7 := vs[4][:len(a)], vs[5][:len(a)], vs[6][:len(a)], vs[7][:len(a)]
	for i := range a {
		s := a[i] + float64(c0*v0[i])
		s += float64(c1 * v1[i])
		s += float64(c2 * v2[i])
		s += float64(c3 * v3[i])
		s += float64(c4 * v4[i])
		s += float64(c5 * v5[i])
		s += float64(c6 * v6[i])
		a[i] = s + float64(c7*v7[i])
	}
}

// MomentumStep is the fused momentum+weight-decay SGD update,
//
//	v ← μ·v + g + λ·x
//	x ← x − lr·v
//
// applied element-wise in one pass over memory instead of three, with the
// operations evaluated left to right exactly as written. vel and grad must
// be at least as long as params.
func MomentumStep(params, vel, grad []float64, mu, wd, lr float64) {
	momentumVec(params, vel, grad, mu, wd, lr)
}

// momentumVecGeneric is the portable MomentumStep kernel, 4-way unrolled.
func momentumVecGeneric(params, vel, grad []float64, mu, wd, lr float64) {
	vel = vel[:len(params)]
	grad = grad[:len(params)]
	i := 0
	for ; i+4 <= len(params); i += 4 {
		v0 := float64(mu*vel[i]) + grad[i] + float64(wd*params[i])
		v1 := float64(mu*vel[i+1]) + grad[i+1] + float64(wd*params[i+1])
		v2 := float64(mu*vel[i+2]) + grad[i+2] + float64(wd*params[i+2])
		v3 := float64(mu*vel[i+3]) + grad[i+3] + float64(wd*params[i+3])
		vel[i], vel[i+1], vel[i+2], vel[i+3] = v0, v1, v2, v3
		params[i] -= float64(lr * v0)
		params[i+1] -= float64(lr * v1)
		params[i+2] -= float64(lr * v2)
		params[i+3] -= float64(lr * v3)
	}
	for ; i < len(params); i++ {
		v := float64(mu*vel[i]) + grad[i] + float64(wd*params[i])
		vel[i] = v
		params[i] -= float64(lr * v)
	}
}

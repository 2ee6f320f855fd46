//go:build amd64 && !purego

package ring

// Vector backends. The assembly kernels evaluate exactly the same
// uint64 formulas as the scalar kernels — the same Harvey
// lazy-reduction butterflies with the same [0, 4q) intermediate bounds
// — four lanes at a time (AVX2, ntt_amd64.s) or eight (AVX-512,
// ntt_avx512_amd64.s), so the outputs are bit-identical to the scalar
// path (asserted per tier by TestVectorKernelsMatchScalar and
// FuzzVectorVsScalar).
//
// AVX2 has neither an unsigned 64-bit compare nor a 64-bit low
// multiply, so its kernels:
//
//   - substitute signed VPCMPGTQ for the conditional subtractions,
//     which is sound because vectorOKForModulus gates q < 2^61 and
//     every compared intermediate stays below 2^63 (see DESIGN.md §14);
//   - build the 64×64 high/low products from 32-bit VPMULUDQ halves
//     (4 multiplies + carry combine for the high word, 3 for the low).
//
// The AVX-512 kernels use VPMINUQ for the conditional subtractions and
// VPMULLQ for the low words; the high words still come from VPMULUDQ
// halves.
//
// The fully-reduced MulMod rows additionally gate q > 2^32 so the
// 2^32-radix split reduction below stays inside the lazy bounds.

// hostTier is the best kernel tier the host supports, probed once at
// init — the result feeds the package default that NewModulus/NewContext
// capture.
var hostTier = probeTier()

func bestTier() kernelTier { return hostTier }

// probeTier checks CPUID for AVX2 / AVX-512 and XGETBV for OS support
// of the matching register state. No external cpu-feature package is
// used; the two tiny assembly shims below are the whole probe.
func probeTier() kernelTier {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return tierScalar
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return tierScalar
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be enabled by
	// the OS or the ymm registers are not preserved across context
	// switches.
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return tierScalar
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return tierScalar
	}
	// AVX-512: leaf-7 EBX bits 16 (F) and 17 (DQ, for VPMULLQ), and
	// XCR0 bits 5-7 (opmask, ZMM0-15 upper halves, ZMM16-31) on top of
	// SSE/AVX state.
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	if ebx7&avx512f != 0 && ebx7&avx512dq != 0 && xcr0&0xE6 == 0xE6 {
		return tierAVX512
	}
	return tierAVX2
}

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// Transform sweep kernels. All operate on full rows whose length is a
// multiple of 8 (vectorOKForModulus gates n ≥ 32).

//go:noescape
func nttFwdFused1AVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)

//go:noescape
func nttLayerFwdAVX2(a, psiRev, psiRevS []uint64, grp, t int, q uint64)

//go:noescape
func nttFwdTailAVX2(a, psiRev, psiRevS []uint64, q uint64)

//go:noescape
func inttHeadAVX2(a, psiInvRev, psiInvRevS []uint64, q uint64)

//go:noescape
func inttLayerAVX2(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)

//go:noescape
func inttTailAVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)

// Pointwise kernels. Each processes len/4 vector steps; the Go wrappers
// below run the scalar kernel on the ragged tail.

//go:noescape
func addVecAVX2(q uint64, a, b, out []uint64)

//go:noescape
func subVecAVX2(q uint64, a, b, out []uint64)

//go:noescape
func negVecAVX2(q uint64, a, out []uint64)

//go:noescape
func mulVecAVX2(q, r32, r32s uint64, a, b, out []uint64)

//go:noescape
func mulAddVecAVX2(q, r32, r32s uint64, a, b, out []uint64)

//go:noescape
func mulShoupAddVecAVX2(q uint64, a, b, bs, out []uint64)

//go:noescape
func mulScalarVecAVX2(q, c, cs uint64, a, out []uint64)

//go:noescape
func mulScalarAddVecAVX2(q, c, cs uint64, a, out []uint64)

//go:noescape
func mulScalarShiftVecAVX2(q, c, cs, e uint64, a, out []uint64)

//go:noescape
func rescaleVecAVX2(q, c, cs uint64, a, b, out []uint64)

// AVX-512 counterparts of the kernels above, eight lanes per step.

//go:noescape
func nttFwdFused1AVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)

//go:noescape
func nttLayerFwdAVX512(a, psiRev, psiRevS []uint64, grp, t int, q uint64)

//go:noescape
func nttFwdTailAVX512(a, psiRev, psiRevS []uint64, q uint64)

//go:noescape
func inttHeadAVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)

//go:noescape
func inttLayerAVX512(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)

//go:noescape
func inttTailAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)

//go:noescape
func addVecAVX512(q uint64, a, b, out []uint64)

//go:noescape
func subVecAVX512(q uint64, a, b, out []uint64)

//go:noescape
func negVecAVX512(q uint64, a, out []uint64)

//go:noescape
func mulVecAVX512(q, r64, r64s, oneS uint64, a, b, out []uint64)

//go:noescape
func mulAddVecAVX512(q, r64, r64s, oneS uint64, a, b, out []uint64)

//go:noescape
func mulShoupAddVecAVX512(q uint64, a, b, bs, out []uint64)

//go:noescape
func mulScalarVecAVX512(q, c, cs uint64, a, out []uint64)

//go:noescape
func mulScalarAddVecAVX512(q, c, cs uint64, a, out []uint64)

//go:noescape
func mulScalarShiftVecAVX512(q, c, cs, e uint64, a, out []uint64)

//go:noescape
func rescaleVecAVX512(q, c, cs uint64, a, b, out []uint64)

// nttVec is the vector forward transform: the same fused pass
// structure as nttScalar (fused first double layer, per-layer middle
// sweeps, fused final double layer with the [0, q) reduction folded
// in), with every pass running the given tier's kernel — a transform
// never mixes tiers.
func (m *Modulus) nttVec(a []uint64, tier kernelTier) {
	n := m.N
	q := m.Q
	quarter := n >> 2
	t := n >> 3
	if tier == tierAVX512 {
		nttFwdFused1AVX512(a,
			m.psiRev[1], m.psiRevS[1],
			m.psiRev[2], m.psiRevS[2],
			m.psiRev[3], m.psiRevS[3], q)
		for grp := 4; grp < quarter; grp <<= 1 {
			nttLayerFwdAVX512(a, m.psiRev, m.psiRevS, grp, t, q)
			t >>= 1
		}
		nttFwdTailAVX512(a, m.psiRev, m.psiRevS, q)
		return
	}
	nttFwdFused1AVX2(a,
		m.psiRev[1], m.psiRevS[1],
		m.psiRev[2], m.psiRevS[2],
		m.psiRev[3], m.psiRevS[3], q)
	for grp := 4; grp < quarter; grp <<= 1 {
		nttLayerFwdAVX2(a, m.psiRev, m.psiRevS, grp, t, q)
		t >>= 1
	}
	nttFwdTailAVX2(a, m.psiRev, m.psiRevS, q)
}

// inttVec is the vector inverse transform, mirroring inttScalar: fused
// first double layer, per-layer middle sweeps, fused final double layer
// with the 1/N scaling and [0, q) reduction folded in — all on the
// given tier.
func (m *Modulus) inttVec(a []uint64, tier kernelTier) {
	n := m.N
	q := m.Q
	t := 4
	if tier == tierAVX512 {
		inttHeadAVX512(a, m.psiInvRev, m.psiInvRevS, q)
		for grp := n >> 3; grp >= 4; grp >>= 1 {
			inttLayerAVX512(a, m.psiInvRev, m.psiInvRevS, grp, t, q)
			t <<= 1
		}
		inttTailAVX512(a,
			m.psiInvRev[1], m.psiInvRevS[1],
			m.psiInvRev[2], m.psiInvRevS[2],
			m.psiInvRev[3], m.psiInvRevS[3],
			m.nInv, m.nInvS, q)
		return
	}
	inttHeadAVX2(a, m.psiInvRev, m.psiInvRevS, q)
	for grp := n >> 3; grp >= 4; grp >>= 1 {
		inttLayerAVX2(a, m.psiInvRev, m.psiInvRevS, grp, t, q)
		t <<= 1
	}
	inttTailAVX2(a,
		m.psiInvRev[1], m.psiInvRevS[1],
		m.psiInvRev[2], m.psiInvRevS[2],
		m.psiInvRev[3], m.psiInvRevS[3],
		m.nInv, m.nInvS, q)
}

// r32ModQ returns 2^32 mod q and its Shoup companion — the radix
// constants of the vectorized MulMod split reduction.
func r32ModQ(q uint64) (uint64, uint64) {
	r32 := (uint64(1) << 32) % q
	return r32, ShoupPrecomp(r32, q)
}

// mulModConsts returns the reduction constants of the AVX-512 MulMod
// rows: 2^64 mod q with its Shoup companion, and the Shoup companion of
// 1 (floor(2^64/q)).
func mulModConsts(q uint64) (r64, r64s, oneS uint64) {
	r64 = -q % q
	return r64, ShoupPrecomp(r64, q), ShoupPrecomp(1, q)
}

// The *VecAsm wrappers run the tier's kernel over the lane-aligned
// prefix and the scalar kernel over the ragged tail (rows in practice
// are power-of-two length, so the tail is empty).

func addVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		addVecAVX512(q, a[:n], b[:n], out[:n])
	} else {
		addVecAVX2(q, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		addRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func subVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		subVecAVX512(q, a[:n], b[:n], out[:n])
	} else {
		subVecAVX2(q, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		subRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func negVecAsm(tier kernelTier, q uint64, a, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		negVecAVX512(q, a[:n], out[:n])
	} else {
		negVecAVX2(q, a[:n], out[:n])
	}
	if n < len(out) {
		negRowScalar(q, a[n:], out[n:])
	}
}

func mulVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		r64, r64s, oneS := mulModConsts(q)
		mulVecAVX512(q, r64, r64s, oneS, a[:n], b[:n], out[:n])
	} else {
		r32, r32s := r32ModQ(q)
		mulVecAVX2(q, r32, r32s, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		mulRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func mulAddVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		r64, r64s, oneS := mulModConsts(q)
		mulAddVecAVX512(q, r64, r64s, oneS, a[:n], b[:n], out[:n])
	} else {
		r32, r32s := r32ModQ(q)
		mulAddVecAVX2(q, r32, r32s, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		mulAddRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func mulShoupAddVecAsm(tier kernelTier, q uint64, a, b, bs, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		mulShoupAddVecAVX512(q, a[:n], b[:n], bs[:n], out[:n])
	} else {
		mulShoupAddVecAVX2(q, a[:n], b[:n], bs[:n], out[:n])
	}
	if n < len(out) {
		mulShoupAddRowScalar(q, a[n:], b[n:], bs[n:], out[n:])
	}
}

func mulScalarVecAsm(tier kernelTier, q, c, cs uint64, a, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		mulScalarVecAVX512(q, c, cs, a[:n], out[:n])
	} else {
		mulScalarVecAVX2(q, c, cs, a[:n], out[:n])
	}
	if n < len(out) {
		mulScalarRowScalar(q, c, cs, a[n:], out[n:])
	}
}

func mulScalarAddVecAsm(tier kernelTier, q, c, cs uint64, a, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		mulScalarAddVecAVX512(q, c, cs, a[:n], out[:n])
	} else {
		mulScalarAddVecAVX2(q, c, cs, a[:n], out[:n])
	}
	if n < len(out) {
		mulScalarAddRowScalar(q, c, cs, a[n:], out[n:])
	}
}

func mulScalarShiftVecAsm(tier kernelTier, q, c, cs, e uint64, a, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		mulScalarShiftVecAVX512(q, c, cs, e, a[:n], out[:n])
	} else {
		mulScalarShiftVecAVX2(q, c, cs, e, a[:n], out[:n])
	}
	if n < len(out) {
		mulScalarShiftRowScalar(q, c, cs, e, a[n:], out[n:])
	}
}

func rescaleVecAsm(tier kernelTier, q, c, cs uint64, a, b, out []uint64) {
	n := vecPrefix(tier, len(out))
	if tier == tierAVX512 {
		rescaleVecAVX512(q, c, cs, a[:n], b[:n], out[:n])
	} else {
		rescaleVecAVX2(q, c, cs, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		rescaleRowScalar(q, c, cs, a[n:], b[n:], out[n:])
	}
}

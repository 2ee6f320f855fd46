package ring

import "sync/atomic"

// Vector kernel selection. On amd64 the butterfly sweeps of NTT/INTT and
// the pointwise workhorses (the key-switch inner product, basis
// conversions and rescales, MulCoeffs[Add], Add/Sub/Neg, MulScalar) run
// assembly kernels in one of two tiers: 8-lane AVX-512
// (ntt_avx512_amd64.s) where the host supports it, 4-lane AVX2
// (ntt_amd64.s) otherwise. Everywhere else — and under the `purego`
// build tag — the scalar Go kernels are the implementation. A CPUID
// probe picks the best tier once at init (avx512 > avx2 > scalar); it
// seeds the package default, which every Modulus/Context captures at
// construction and keeps. SetVectorKernels(false) pins the scalar
// kernels for ablation benches (copse-bench -novec).
//
// Every tier is bit-identical to the scalar kernels: the butterflies
// and Shoup multiplies evaluate exactly the same uint64 formulas
// lane-wise (same lazy-reduction bounds), and the fully-reduced kernels
// (MulMod) produce canonical residues on every path. The property is
// asserted per supported tier by TestVectorKernelsMatchScalar,
// TestVectorRowKernelsMatchScalar and FuzzVectorVsScalar.
//
// Eligibility is gated per modulus: q must fit in (2^32, 2^61) so that
// every lazy intermediate stays below 2^63 (the AVX2 tier substitutes
// signed 64-bit lane compares for the unsigned compares it lacks — see
// DESIGN.md §14 for the bound proof) and so that the MulMod
// split-reduction's carry terms stay below q. The 55-bit production
// prime menu sits comfortably inside the gate; out-of-range primes
// silently keep the scalar kernels.

// kernelTier names a kernel backend. Ordered: a host supporting a tier
// supports every lower one.
type kernelTier int32

const (
	tierScalar kernelTier = iota
	tierAVX2
	tierAVX512
)

// String returns the tier's provenance name.
func (t kernelTier) String() string {
	switch t {
	case tierAVX512:
		return "avx512"
	case tierAVX2:
		return "avx2"
	}
	return "scalar-fused"
}

// vecPrefix returns the longest prefix of an n-element row that the
// tier's kernels cover in whole vector steps.
func vecPrefix(t kernelTier, n int) int {
	if t == tierAVX512 {
		return n &^ 7
	}
	return n &^ 3
}

// kernelDefault is the package-wide default tier captured by NewModulus
// / NewContext. Seeded by the capability probe at init;
// SetVectorKernels overrides it.
var kernelDefault atomic.Int32

func init() {
	kernelDefault.Store(int32(bestTier()))
}

func defaultTier() kernelTier { return kernelTier(kernelDefault.Load()) }

// SetVectorKernels sets the package default for vector kernel selection:
// on selects the best tier the host supports, off the scalar kernels.
// Contexts and Moduli capture the default when they are built and keep
// it; existing ones are unaffected. It returns a function that restores
// the previous default, so a caller can pin a tier around one
// construction.
func SetVectorKernels(on bool) (restore func()) {
	t := tierScalar
	if on {
		t = bestTier()
	}
	prev := kernelDefault.Swap(int32(t))
	return func() { kernelDefault.Store(prev) }
}

// KernelVariant names the kernel tier the package default selects:
// "avx512", "avx2" or "scalar-fused". Benchmark provenance headers
// record it.
func KernelVariant() string { return defaultTier().String() }

// vectorOKForModulus reports whether the vector kernels may serve prime
// q at transform size n: the lazy-reduction intermediates must stay
// below 2^63 (q < 2^61), the MulMod split reduction needs 2^32 < q, and
// the fused head/tail kernels process two 4-element blocks (AVX2) or
// four (AVX-512) per step, and the AVX-512 t=4 layer two groups (n ≥ 32).
func vectorOKForModulus(q uint64, n int) bool {
	return q > 1<<32 && q < 1<<61 && n >= 32
}

// rowVecOK reports whether a pointwise row of length n over prime q may
// take the vector path: same modulus gate, plus a length that covers at
// least two full vector steps. The kernels handle any length (a scalar
// tail loop covers the remainder), but tiny rows are not worth the call.
func rowVecOK(t kernelTier, q uint64, n int) bool {
	return t != tierScalar && n >= 16 && q > 1<<32 && q < 1<<61
}

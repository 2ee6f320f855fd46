package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// vectorTiers splits the vector tiers into those the host supports
// (every tier test runs each of them against the scalar reference) and
// those it lacks.
func vectorTiers() (run, skipped []kernelTier) {
	for _, tier := range []kernelTier{tierAVX2, tierAVX512} {
		if tier <= bestTier() {
			run = append(run, tier)
		} else {
			skipped = append(skipped, tier)
		}
	}
	return run, skipped
}

// hostVectorTiers returns every vector tier the host supports and skips
// the test when there is none (non-amd64 hosts, `purego` builds).
func hostVectorTiers(t testing.TB) []kernelTier {
	t.Helper()
	tiers, _ := vectorTiers()
	if len(tiers) == 0 {
		t.Skip("no vector backend on this host/build")
	}
	return tiers
}

// primeAbove returns the smallest prime q > lo with q ≡ 1 (mod step).
func primeAbove(t testing.TB, lo, step uint64) uint64 {
	t.Helper()
	b := new(big.Int)
	for q := (lo/step+1)*step + 1; ; q += step {
		if b.SetUint64(q).ProbablyPrime(20) {
			return q
		}
	}
}

// gatePrimes returns NTT primes for transform size n at both ends of
// the vector gate 2^32 < q < 2^61 and at the production 55-bit size.
func gatePrimes(t testing.TB, n int) []uint64 {
	t.Helper()
	step := uint64(2 * n)
	mid, err := GeneratePrimes(55, step, 1)
	if err != nil {
		t.Fatalf("GeneratePrimes(55): %v", err)
	}
	top, err := GeneratePrimes(61, step, 1)
	if err != nil {
		t.Fatalf("GeneratePrimes(61): %v", err)
	}
	return []uint64{primeAbove(t, 1<<32, step), mid[0], top[0]}
}

func randRow(rng *rand.Rand, n int, q uint64) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		row[i] = rng.Uint64() % q
	}
	return row
}

// checkTransforms asserts the tier's NTT and INTT match the fused
// scalar reference on row a (and that the pair round-trips).
func checkTransforms(t testing.TB, m *Modulus, tier kernelTier, a []uint64) {
	t.Helper()
	want := append([]uint64(nil), a...)
	got := append([]uint64(nil), a...)
	m.nttScalar(want)
	m.nttVec(got, tier)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%v q=%d n=%d NTT diverges at %d: scalar %d vector %d", tier, m.Q, m.N, i, want[i], got[i])
		}
	}
	m.inttScalar(want)
	m.inttVec(got, tier)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%v q=%d n=%d INTT diverges at %d: scalar %d vector %d", tier, m.Q, m.N, i, want[i], got[i])
		}
		if got[i] != a[i] {
			t.Fatalf("%v q=%d n=%d round trip failed at %d", tier, m.Q, m.N, i)
		}
	}
}

// TestVectorKernelsMatchScalar asserts bit-identity of every supported
// tier's transform kernels against the fused scalar reference, at every
// size from the n=32 minimum to N=32768 (the Security128 ring) and at
// both ends of the modulus gate.
func TestVectorKernelsMatchScalar(t *testing.T) {
	tiers := hostVectorTiers(t)
	rng := rand.New(rand.NewSource(7))
	for logN := 5; logN <= 15; logN++ {
		n := 1 << logN
		for _, q := range gatePrimes(t, n) {
			m, err := NewModulus(q, n)
			if err != nil {
				t.Fatalf("NewModulus: %v", err)
			}
			for _, tier := range tiers {
				for trial := 0; trial < 3; trial++ {
					checkTransforms(t, m, tier, randRow(rng, n, q))
				}
			}
		}
	}
}

// checkRowKernels asserts bit-identity of every pointwise kernel of the
// tier against its scalar row on random length-n inputs over q.
func checkRowKernels(t testing.TB, rng *rand.Rand, tier kernelTier, q uint64, n int) {
	t.Helper()
	a := randRow(rng, n, q)
	b := randRow(rng, n, q)
	bs := make([]uint64, n)
	for i := range bs {
		bs[i] = ShoupPrecomp(b[i], q)
	}
	acc := randRow(rng, n, q)
	c := rng.Uint64() % q
	cs := ShoupPrecomp(c, q)
	// The basis-conversion kernels take unreduced inputs (residues of
	// other primes, or values shifted up to 3q/2).
	wide := make([]uint64, n)
	for i := range wide {
		wide[i] = rng.Uint64()
	}
	e := rng.Uint64() % q

	check := func(name string, scalar, vec func(out []uint64)) {
		t.Helper()
		want := make([]uint64, n)
		got := make([]uint64, n)
		scalar(want)
		vec(got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v %s q=%d n=%d diverges at %d: scalar %d vector %d", tier, name, q, n, i, want[i], got[i])
			}
		}
	}
	check("add",
		func(out []uint64) { addRowScalar(q, a, b, out) },
		func(out []uint64) { addVecAsm(tier, q, a, b, out) })
	check("sub",
		func(out []uint64) { subRowScalar(q, a, b, out) },
		func(out []uint64) { subVecAsm(tier, q, a, b, out) })
	check("neg",
		func(out []uint64) { negRowScalar(q, a, out) },
		func(out []uint64) { negVecAsm(tier, q, a, out) })
	check("mul",
		func(out []uint64) { mulRowScalar(q, a, b, out) },
		func(out []uint64) { mulVecAsm(tier, q, a, b, out) })
	check("mulAdd",
		func(out []uint64) { copy(out, acc); mulAddRowScalar(q, a, b, out) },
		func(out []uint64) { copy(out, acc); mulAddVecAsm(tier, q, a, b, out) })
	check("mulShoupAdd",
		func(out []uint64) { copy(out, acc); mulShoupAddRowScalar(q, a, b, bs, out) },
		func(out []uint64) { copy(out, acc); mulShoupAddVecAsm(tier, q, a, b, bs, out) })
	check("mulScalar",
		func(out []uint64) { mulScalarRowScalar(q, c, cs, a, out) },
		func(out []uint64) { mulScalarVecAsm(tier, q, c, cs, a, out) })
	check("mulScalarShift",
		func(out []uint64) { mulScalarShiftRowScalar(q, c, cs, e, wide, out) },
		func(out []uint64) { mulScalarShiftVecAsm(tier, q, c, cs, e, wide, out) })
	check("mulScalarAdd",
		func(out []uint64) { copy(out, acc); mulScalarAddRowScalar(q, c, cs, wide, out) },
		func(out []uint64) { copy(out, acc); mulScalarAddVecAsm(tier, q, c, cs, wide, out) })
	check("rescale",
		func(out []uint64) { rescaleRowScalar(q, c, cs, a, b, out) },
		func(out []uint64) { rescaleVecAsm(tier, q, c, cs, a, b, out) })
}

// TestVectorRowKernelsMatchScalar asserts bit-identity of every
// pointwise kernel of every supported tier against its scalar row,
// including ragged lengths that leave a 4- or 8-lane tail to the scalar
// loop in the wrappers, at both ends of the modulus gate.
func TestVectorRowKernelsMatchScalar(t *testing.T) {
	tiers := hostVectorTiers(t)
	rng := rand.New(rand.NewSource(11))
	for _, q := range gatePrimes(t, 1<<12) {
		for _, n := range []int{16, 20, 36, 64, 67, 256, 1000, 1024} {
			for _, tier := range tiers {
				checkRowKernels(t, rng, tier, q, n)
			}
		}
	}
}

// TestVectorNegZero pins the x=0 edge of the vectorized NegMod.
func TestVectorNegZero(t *testing.T) {
	q := uint64(1)<<55 - 55
	a := []uint64{0, 1, q - 1, 0, 0, q / 2, 3, 0, q - 1, 0, 0, 0, 1, 0, 7, 0}
	for _, tier := range hostVectorTiers(t) {
		want := make([]uint64, len(a))
		got := make([]uint64, len(a))
		negRowScalar(q, a, want)
		negVecAsm(tier, q, a, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v neg diverges at %d: scalar %d vector %d", tier, i, want[i], got[i])
			}
		}
	}
}

// TestModulusVectorGate checks that out-of-range primes and tiny
// transforms keep the scalar kernels.
func TestModulusVectorGate(t *testing.T) {
	if vectorOKForModulus(uint64(12289), 4096) {
		t.Fatal("q < 2^32 must not take the vector path")
	}
	if vectorOKForModulus(uint64(1)<<61+9, 4096) {
		t.Fatal("q >= 2^61 must not take the vector path")
	}
	if vectorOKForModulus(uint64(1)<<55-55, 16) {
		t.Fatal("n < 32 must not take the vector path")
	}
	if !vectorOKForModulus(uint64(1)<<55-55, 32) {
		t.Fatal("55-bit prime at n=32 should be vector-eligible")
	}
}

// TestKernelVariantNamesDefaultTier: the provenance name tracks the
// package default through SetVectorKernels, and restore brings the
// previous default back. Run verbosely, it logs which vector tiers the
// host supports — exactly the tiers every other tier test checks
// against the scalar kernels.
func TestKernelVariantNamesDefaultTier(t *testing.T) {
	run, skipped := vectorTiers()
	t.Logf("kernel tiers run: %v; skipped (host lacks them): %v", run, skipped)
	host := KernelVariant()
	if want := bestTier().String(); host != want {
		t.Fatalf("KernelVariant() = %q at init, want the best host tier %q", host, want)
	}
	t.Logf("host kernel tier: %s", host)
	restore := SetVectorKernels(false)
	if got := KernelVariant(); got != "scalar-fused" {
		t.Fatalf("KernelVariant() = %q with vector kernels off, want scalar-fused", got)
	}
	inner := SetVectorKernels(true)
	if got := KernelVariant(); got != host {
		t.Fatalf("KernelVariant() = %q with vector kernels on, want %q", got, host)
	}
	inner()
	if got := KernelVariant(); got != "scalar-fused" {
		t.Fatalf("restore returned %q, want the previous scalar-fused default", got)
	}
	restore()
	if got := KernelVariant(); got != host {
		t.Fatalf("restore returned %q, want the previous %q default", got, host)
	}
}

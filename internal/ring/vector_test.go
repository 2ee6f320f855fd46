package ring

import (
	"math/rand"
	"testing"
)

// vectorTestModulus builds a Modulus over a fresh 55-bit prime for the
// given logN with the vector kernels force-enabled (skipping the test
// when the host has no vector backend).
func vectorTestModulus(t *testing.T, logN int) *Modulus {
	t.Helper()
	if !VectorKernelsAvailable() {
		t.Skip("no vector backend on this host/build")
	}
	n := 1 << logN
	primes, err := GeneratePrimes(55, uint64(2*n), 1)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	m, err := NewModulus(primes[0], n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	m.SetVectorKernels(true)
	if !m.VectorKernels() {
		t.Fatalf("vector kernels did not engage for q=%d n=%d", primes[0], n)
	}
	return m
}

func randRow(rng *rand.Rand, n int, q uint64) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		row[i] = rng.Uint64() % q
	}
	return row
}

// TestVectorKernelsMatchScalar asserts bit-identity of the AVX2
// transform kernels against the fused scalar reference across sizes.
func TestVectorKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, logN := range []int{5, 6, 8, 11, 12, 13} {
		m := vectorTestModulus(t, logN)
		n := m.N
		for trial := 0; trial < 4; trial++ {
			a := randRow(rng, n, m.Q)
			want := append([]uint64(nil), a...)
			got := append([]uint64(nil), a...)
			m.nttScalar(want)
			m.nttVec(got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("logN=%d NTT diverges at %d: scalar %d vector %d", logN, i, want[i], got[i])
				}
			}
			m.inttScalar(want)
			m.inttVec(got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("logN=%d INTT diverges at %d: scalar %d vector %d", logN, i, want[i], got[i])
				}
			}
			if got[0] != a[0] {
				t.Fatalf("logN=%d round trip failed", logN)
			}
		}
	}
}

// TestVectorRowKernelsMatchScalar asserts bit-identity of every
// pointwise vector kernel against its scalar row, including ragged
// lengths that exercise the scalar tail in the wrappers.
func TestVectorRowKernelsMatchScalar(t *testing.T) {
	if !VectorKernelsAvailable() {
		t.Skip("no vector backend on this host/build")
	}
	rng := rand.New(rand.NewSource(11))
	primes, err := GeneratePrimes(55, 1<<13, 2)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	for _, q := range primes {
		for _, n := range []int{16, 64, 67, 256, 1024} {
			a := randRow(rng, n, q)
			b := randRow(rng, n, q)
			bs := make([]uint64, n)
			for i := range bs {
				bs[i] = ShoupPrecomp(b[i], q)
			}
			acc := randRow(rng, n, q)
			c := rng.Uint64() % q
			cs := ShoupPrecomp(c, q)

			check := func(name string, scalar, vec func(out []uint64)) {
				t.Helper()
				want := make([]uint64, n)
				got := make([]uint64, n)
				scalar(want)
				vec(got)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s q=%d n=%d diverges at %d: scalar %d vector %d", name, q, n, i, want[i], got[i])
					}
				}
			}
			check("add",
				func(out []uint64) { addRowScalar(q, a, b, out) },
				func(out []uint64) { addVecAsm(q, a, b, out) })
			check("sub",
				func(out []uint64) { subRowScalar(q, a, b, out) },
				func(out []uint64) { subVecAsm(q, a, b, out) })
			check("neg",
				func(out []uint64) { negRowScalar(q, a, out) },
				func(out []uint64) { negVecAsm(q, a, out) })
			check("mul",
				func(out []uint64) { mulRowScalar(q, a, b, out) },
				func(out []uint64) { mulVecAsm(q, a, b, out) })
			check("mulAdd",
				func(out []uint64) { copy(out, acc); mulAddRowScalar(q, a, b, out) },
				func(out []uint64) { copy(out, acc); mulAddVecAsm(q, a, b, out) })
			check("mulShoupAdd",
				func(out []uint64) { copy(out, acc); mulShoupAddRowScalar(q, a, b, bs, out) },
				func(out []uint64) { copy(out, acc); mulShoupAddVecAsm(q, a, b, bs, out) })
			check("mulScalar",
				func(out []uint64) { mulScalarRowScalar(q, c, cs, a, out) },
				func(out []uint64) { mulScalarVecAsm(q, c, cs, a, out) })
			// The basis-conversion kernels take unreduced inputs (residues
			// of other primes, or values shifted up to 3q/2).
			wide := make([]uint64, n)
			for i := range wide {
				wide[i] = rng.Uint64()
			}
			e := rng.Uint64() % q
			check("mulScalarShift",
				func(out []uint64) { mulScalarShiftRowScalar(q, c, cs, e, wide, out) },
				func(out []uint64) { mulScalarShiftVecAsm(q, c, cs, e, wide, out) })
			check("mulScalarAdd",
				func(out []uint64) { copy(out, acc); mulScalarAddRowScalar(q, c, cs, wide, out) },
				func(out []uint64) { copy(out, acc); mulScalarAddVecAsm(q, c, cs, wide, out) })
			check("rescale",
				func(out []uint64) { rescaleRowScalar(q, c, cs, a, b, out) },
				func(out []uint64) { rescaleVecAsm(q, c, cs, a, b, out) })
		}
	}
}

// TestVectorNegZero pins the x=0 edge of the vectorized NegMod.
func TestVectorNegZero(t *testing.T) {
	if !VectorKernelsAvailable() {
		t.Skip("no vector backend on this host/build")
	}
	q := uint64(1)<<55 - 55
	a := []uint64{0, 1, q - 1, 0, 0, q / 2, 3, 0}
	want := make([]uint64, len(a))
	got := make([]uint64, len(a))
	negRowScalar(q, a, want)
	negVecAsm(q, a, got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("neg diverges at %d: scalar %d vector %d", i, want[i], got[i])
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

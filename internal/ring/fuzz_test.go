package ring

import (
	"math/rand"
	"testing"
)

// fuzzModulus derives a transform-sized Modulus from the fuzzed
// selectors: LogN ∈ {11..15} and one of several fresh 55-bit NTT
// primes for that size.
func fuzzModulus(t *testing.T, logNSel, primeSel uint64) *Modulus {
	t.Helper()
	logN := 11 + int(logNSel%5)
	n := 1 << logN
	const menu = 4
	primes, err := GeneratePrimes(55, uint64(2*n), menu)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	m, err := NewModulus(primes[primeSel%menu], n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	return m
}

// FuzzNTTRoundTrip: NTT→INTT must be the identity on any input row,
// for any LogN ∈ {11..15} and any 55-bit NTT prime, on whichever
// kernel variant the host selects.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(42), uint64(2), uint64(1))
	f.Add(uint64(0xfeed), uint64(4), uint64(3))
	f.Fuzz(func(t *testing.T, seed, logNSel, primeSel uint64) {
		m := fuzzModulus(t, logNSel, primeSel)
		rng := rand.New(rand.NewSource(int64(seed)))
		a := make([]uint64, m.N)
		for i := range a {
			a[i] = rng.Uint64() % m.Q
		}
		orig := append([]uint64(nil), a...)
		m.NTT(a)
		m.INTT(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("round trip broken at %d: got %d want %d (q=%d n=%d tier=%v)",
					i, a[i], orig[i], m.Q, m.N, m.tier)
			}
		}
	})
}

// fuzzVectorModulus derives the FuzzVectorVsScalar modulus from the
// fuzzed selectors. LogN ∈ {5..15}: selectors 0..4 pick LogN 11..15 (the
// production ring sizes) and 5..10 pick LogN 5..10, down to the n=32
// vector minimum. The prime menu is four fresh 55-bit NTT primes for
// that size (selectors 0..3) followed by the primes at the low (4) and
// top (5) ends of the vector gate 2^32 < q < 2^61.
func fuzzVectorModulus(t *testing.T, logNSel, primeSel uint64) *Modulus {
	t.Helper()
	logN := 5 + int((logNSel%11+6)%11)
	n := 1 << logN
	menu, err := GeneratePrimes(55, uint64(2*n), 4)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	gate := gatePrimes(t, n)
	menu = append(menu, gate[0], gate[len(gate)-1])
	m, err := NewModulus(menu[primeSel%uint64(len(menu))], n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	return m
}

// FuzzVectorVsScalar: every vector tier the host supports must be
// bit-identical to the scalar kernels on any input, for the transforms
// and for every pointwise row. The modulus comes from
// fuzzVectorModulus; the pointwise rows have length n − (seed mod 8),
// which leaves a ragged tail to the wrappers' scalar loop. On hosts
// without a vector backend the target skips.
func FuzzVectorVsScalar(f *testing.F) {
	f.Add(uint64(7), uint64(0), uint64(0))
	f.Add(uint64(99), uint64(1), uint64(2))
	f.Add(uint64(0xabcd), uint64(3), uint64(1))
	f.Fuzz(func(t *testing.T, seed, logNSel, primeSel uint64) {
		tiers := hostVectorTiers(t)
		m := fuzzVectorModulus(t, logNSel, primeSel)
		rng := rand.New(rand.NewSource(int64(seed)))
		a := randRow(rng, m.N, m.Q)
		for _, tier := range tiers {
			checkTransforms(t, m, tier, a)
			checkRowKernels(t, rng, tier, m.Q, m.N-int(seed%8))
		}
	})
}

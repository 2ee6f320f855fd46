package ring

import (
	"math/rand"
	"testing"
)

func benchContext(b *testing.B, logN int) *Context {
	b.Helper()
	const plainT = 65537
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, 7)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContextQP(logN, primes[:4], primes[4:], plainT)
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkNTT measures the core transform at the two deployed ring
// sizes.
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{11, 12} {
		ctx := benchContext(b, logN)
		s := NewSeededSampler(ctx, 1)
		p := s.UniformPoly(0, false)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Moduli[0].NTT(p.Coeffs[0])
				ctx.Moduli[0].INTT(p.Coeffs[0])
			}
		})
	}
}

// BenchmarkModSwitchDown measures the exact BGV rescale.
func BenchmarkModSwitchDown(b *testing.B) {
	ctx := benchContext(b, 12)
	s := NewSeededSampler(ctx, 2)
	base := s.UniformPoly(ctx.MaxLevel(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Copy()
		ctx.ModSwitchDown(p)
	}
}

// BenchmarkModUp measures the key-switching digit extension (ModUp
// over Q ∪ P, including the digit NTTs).
func BenchmarkModUp(b *testing.B) {
	ctx := benchContext(b, 12)
	s := NewSeededSampler(ctx, 3)
	p := s.UniformPoly(ctx.MaxLevel(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.PutPolys(ctx.ModUp(p))
	}
}

// BenchmarkModDown measures the division of an extended polynomial by
// the special modulus P.
func BenchmarkModDown(b *testing.B) {
	ctx := benchContext(b, 12)
	s := NewSeededSampler(ctx, 4)
	x := s.UniformPolyQP(ctx.MaxLevel(), true)
	out := ctx.NewPoly(ctx.MaxLevel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ModDown(x, nil, out)
	}
}

// BenchmarkKernelTiers times the transforms and the hot pointwise rows
// on every tier the host supports, scalar included, over one N=2048
// row: the per-kernel tier ratios DESIGN.md §14 records.
func BenchmarkKernelTiers(b *testing.B) {
	const n = 1 << 11
	primes, err := GeneratePrimes(55, 2*n, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := primes[0]
	m, err := NewModulus(q, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x, y, out := randRow(rng, n, q), randRow(rng, n, q), randRow(rng, n, q)
	ys := make([]uint64, n)
	for i := range ys {
		ys[i] = ShoupPrecomp(y[i], q)
	}
	c := rng.Uint64() % q
	cs := ShoupPrecomp(c, q)
	kernels := []struct {
		name string
		run  func(kernelTier)
	}{
		{"ntt", func(kernelTier) { m.NTT(x) }},
		{"intt", func(kernelTier) { m.INTT(x) }},
		{"add", func(t kernelTier) { addRow(t, q, x, y, out) }},
		{"mul", func(t kernelTier) { mulRow(t, q, x, y, out) }},
		{"mulShoupAdd", func(t kernelTier) { mulShoupAddRow(t, q, x, y, ys, out) }},
		{"mulScalarAdd", func(t kernelTier) { mulScalarAddRow(t, q, c, cs, x, out) }},
		{"rescale", func(t kernelTier) { rescaleRow(t, q, c, cs, x, y, out) }},
	}
	for tier := tierScalar; tier <= bestTier(); tier++ {
		m.setTier(tier)
		for _, k := range kernels {
			b.Run(tier.String()+"/"+k.name, func(b *testing.B) {
				for b.Loop() {
					k.run(tier)
				}
			})
		}
	}
}

func sizeName(logN int) string {
	return map[int]string{11: "N=2048", 12: "N=4096"}[logN]
}

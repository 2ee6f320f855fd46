package ring

import (
	crand "crypto/rand"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// Sampler draws the random polynomials used by the BGV scheme: uniform
// masks, ternary secrets, and centered-binomial errors. It is
// deterministic given a seed, which keeps tests and benchmarks
// reproducible; NewSampler seeds from crypto/rand.
type Sampler struct {
	ctx *Context
	rng *rand.Rand
	cbd int // centered binomial parameter: sum of cbd bits minus cbd bits
}

// NewSampler returns a sampler seeded from the operating system's entropy
// source.
func NewSampler(ctx *Context) *Sampler {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back would silently
		// weaken keys, so crash loudly instead.
		panic("ring: cannot read entropy: " + err.Error())
	}
	return newSamplerFromSeed(ctx, seed)
}

// NewSeededSampler returns a deterministic sampler for tests and
// reproducible experiments.
func NewSeededSampler(ctx *Context, seed uint64) *Sampler {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:8], seed)
	return newSamplerFromSeed(ctx, s)
}

func newSamplerFromSeed(ctx *Context, seed [32]byte) *Sampler {
	return &Sampler{
		ctx: ctx,
		rng: rand.New(rand.NewChaCha8(seed)),
		cbd: 21, // sigma = sqrt(21/2) ≈ 3.24, the conventional RLWE width
	}
}

// UniformPoly samples a uniformly random polynomial at the given level in
// the requested domain. Because CRT is a bijection, sampling each residue
// independently yields a uniform element of Z_Q.
func (s *Sampler) UniformPoly(level int, ntt bool) *Poly {
	p := s.ctx.NewPoly(level)
	s.uniformRows(p.Coeffs, s.ctx.Moduli)
	p.IsNTT = ntt
	return p
}

// UniformPolyQP samples a uniformly random extended polynomial over
// Q_level ∪ P (see NewContextQP).
func (s *Sampler) UniformPolyQP(level int, ntt bool) *Poly {
	p := s.ctx.NewPolyQP(level)
	q, sp := s.ctx.SplitQP(p, level)
	s.uniformRows(q.Coeffs, s.ctx.Moduli)
	s.uniformRows(sp.Coeffs, s.ctx.P.Moduli)
	p.IsNTT = ntt
	return p
}

// uniformRows fills rows[i] with uniform residues modulo moduli[i].
func (s *Sampler) uniformRows(rows [][]uint64, moduli []*Modulus) {
	for i, pi := range rows {
		q := moduli[i].Q
		bound := ^uint64(0) - (^uint64(0) % q) // rejection threshold
		for j := range pi {
			for {
				v := s.rng.Uint64()
				if v < bound {
					pi[j] = v % q
					break
				}
			}
		}
	}
}

// TernaryPoly samples a uniform ternary polynomial (coefficients in
// {-1,0,1}) at the given level, in coefficient domain.
func (s *Sampler) TernaryPoly(level int) *Poly {
	coeffs := make([]int64, s.ctx.N)
	for j := range coeffs {
		coeffs[j] = int64(s.rng.IntN(3)) - 1
	}
	p := s.ctx.NewPoly(level)
	s.ctx.SetLift(coeffs, p)
	return p
}

// ErrorPoly samples a centered-binomial error polynomial at the given
// level, in coefficient domain.
func (s *Sampler) ErrorPoly(level int) *Poly {
	p := s.ctx.NewPoly(level)
	s.ctx.SetLift(s.errorCoeffs(), p)
	return p
}

// ErrorPolyQP samples one centered-binomial error polynomial lifted to
// every limb of Q_level ∪ P, in coefficient domain.
func (s *Sampler) ErrorPolyQP(level int) *Poly {
	coeffs := s.errorCoeffs()
	p := s.ctx.NewPolyQP(level)
	q, sp := s.ctx.SplitQP(p, level)
	s.ctx.SetLift(coeffs, q)
	s.ctx.P.SetLift(coeffs, sp)
	return p
}

func (s *Sampler) errorCoeffs() []int64 {
	coeffs := make([]int64, s.ctx.N)
	for j := range coeffs {
		coeffs[j] = s.cbdSample()
	}
	return coeffs
}

// cbdSample draws one centered-binomial value: popcount(a)-popcount(b)
// over s.cbd bit pairs.
func (s *Sampler) cbdSample() int64 {
	mask := uint64(1)<<uint(s.cbd) - 1
	a := s.rng.Uint64() & mask
	b := s.rng.Uint64() & mask
	return int64(bits.OnesCount64(a)) - int64(bits.OnesCount64(b))
}

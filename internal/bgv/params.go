// Package bgv implements a leveled BGV homomorphic encryption scheme over
// power-of-two cyclotomic rings, with ciphertext packing (SIMD slots),
// relinearization, Galois-automorphism slot rotations, and exact BGV
// modulus switching. It is the pure-Go stand-in for HElib used by the
// COPSE runtime: same scheme family, same packing and noise-management
// model.
package bgv

import (
	"fmt"
	"math"

	"copse/internal/ring"
)

// Params describes a BGV parameter set.
type Params struct {
	// LogN is the log2 of the ring degree N. The scheme packs N/2 usable
	// SIMD slots (one "row" of the batching layout).
	LogN int
	// T is the plaintext modulus. It must be prime and ≡ 1 mod 2N so the
	// batching encoder exists.
	T uint64
	// PrimeBits is the bit size of each ciphertext prime in the chain.
	PrimeBits int
	// Levels is the number of primes in the modulus chain; roughly one
	// prime is consumed per ciphertext-ciphertext multiplication.
	Levels int
	// SpecialPrimes is K, the number of special primes (each PrimeBits
	// wide, ≡ 1 mod 2N·T) whose product P extends the modulus for
	// hybrid key switching. They are generated after the chain and never
	// hold ciphertexts; key-switching digits group the chain into runs
	// of K primes, so a switch at level ℓ has ⌈(ℓ+1)/K⌉ digits.
	SpecialPrimes int
	// IntraOpWorkers is the ring-layer limb parallelism: 0 or 1 runs
	// every op's per-limb loop serially; n ≥ 2 attaches an n-way
	// ring.Workers pool to the context so NTTs, key switches and modulus
	// switches fan their limbs across cores. Results are bit-identical
	// either way. Callers that tear backends down repeatedly should
	// release the pool via RingCtx.CloseWorkers.
	IntraOpWorkers int
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.LogN < 4 || p.LogN > 15 {
		return fmt.Errorf("bgv: LogN %d out of range [4,15]", p.LogN)
	}
	if p.T < 2 || (p.T-1)%uint64(2<<p.LogN) != 0 {
		return fmt.Errorf("bgv: plaintext modulus %d is not ≡ 1 mod 2N", p.T)
	}
	if p.PrimeBits < 30 || p.PrimeBits > 61 {
		return fmt.Errorf("bgv: PrimeBits %d out of range [30,61]", p.PrimeBits)
	}
	if p.Levels < 1 {
		return fmt.Errorf("bgv: need at least one level")
	}
	if p.SpecialPrimes < 1 || p.SpecialPrimes > MaxSpecialPrimes {
		return fmt.Errorf("bgv: SpecialPrimes %d out of range [1,%d]", p.SpecialPrimes, MaxSpecialPrimes)
	}
	if p.IntraOpWorkers < 0 {
		return fmt.Errorf("bgv: IntraOpWorkers %d is negative", p.IntraOpWorkers)
	}
	return nil
}

// N returns the ring degree.
func (p Params) N() int { return 1 << p.LogN }

// Slots returns the number of usable SIMD slots (N/2).
func (p Params) Slots() int { return 1 << (p.LogN - 1) }

// MaxSpecialPrimes bounds K: the special modulus needs only to cover one
// digit group, and every extra prime costs transforms on every switch.
const MaxSpecialPrimes = 8

// PresetParams returns the shipped parameter family at a ring degree:
// every preset shares the plaintext modulus, the 55-bit chain primes and
// K = 3 special primes, and differs only in LogN. The static level
// planner prices noise with it.
func PresetParams(logN, levels int) Params {
	return Params{LogN: logN, T: 65537, PrimeBits: 55, Levels: levels, SpecialPrimes: 3}
}

// TestParams returns a small, fast parameter set for unit tests. The
// lattice dimension is far below the 128-bit-security requirement; it is
// functionally faithful only.
func TestParams(levels int) Params { return PresetParams(11, levels) }

// DemoParams returns a mid-sized set used by the examples and benchmark
// harness: N=4096 (2048 slots), enough for the paper's real-world models.
// Security is still below 128 bits at the depths COPSE uses; see DESIGN.md.
func DemoParams(levels int) Params { return PresetParams(12, levels) }

// Secure128Params returns a parameter set whose dimension matches the
// paper's security parameter of 128 at the multiplicative depths COPSE
// produces. It is expensive in pure Go and intended for offline runs.
func Secure128Params(levels int) Params { return PresetParams(15, levels) }

// KeySwitchDigits returns the number of hybrid key-switching digits at a
// level: its ℓ+1 chain primes in groups of K.
func (p Params) KeySwitchDigits(level int) int {
	return (level + p.SpecialPrimes) / p.SpecialPrimes
}

// Noise model. Every estimate is log2 of the critical quantity
// |t·e + m| and errs high; the evaluator tracks ciphertexts with these
// formulas and the static level planner (internal/core) simulates
// pipelines with the very same functions.

// FreshNoiseBits estimates a fresh public-key encryption:
// t·(e0 + e·u + e1·s) has canonical norm about t·B·sqrt(2N), padded
// generously.
func FreshNoiseBits(p Params) float64 {
	return float64(bitsOf(p.T)) + float64(p.LogN)/2 + 8
}

// ModSwitchFloorBits is the noise right after a modulus switch: the
// rounding term t·(1 + ||s||_1), padded.
func ModSwitchFloorBits(p Params) float64 {
	return float64(bitsOf(p.T)) + float64(p.LogN) + 4
}

// KeySwitchNoiseBits is the additive noise of one hybrid key switch at a
// level. Each of the D digits is a basis-conversion lift below K·Q_j,
// multiplied by a key error of norm t·B; dividing by P ≥ Q_j leaves about
// D·K·N·t·B, which also covers the ModDown rounding t·K·(1 + ||s||_1)/2.
func KeySwitchNoiseBits(p Params, level int) float64 {
	return float64(bitsOf(p.T)) + float64(p.LogN) +
		math.Log2(float64(p.KeySwitchDigits(level)*p.SpecialPrimes)) + 6
}

// Parameters is an instantiated parameter set: the ring context plus
// derived constants.
type Parameters struct {
	Params
	RingCtx *ring.Context
}

// NewParameters generates the prime chain and ring context for p.
func NewParameters(p Params) (*Parameters, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Primes must be ≡ 1 mod 2N (NTT) and ≡ 1 mod T (scale-free modulus
	// switching). T is prime and 2N a power of two, so lcm = 2N·T.
	// The special primes continue the same deterministic scan after the
	// chain, so the chain itself does not depend on K.
	step := uint64(2*p.N()) * p.T
	primes, err := ring.GeneratePrimes(p.PrimeBits, step, p.Levels+p.SpecialPrimes)
	if err != nil {
		return nil, err
	}
	ctx, err := ring.NewContextQP(p.LogN, primes[:p.Levels], primes[p.Levels:], p.T)
	if err != nil {
		return nil, err
	}
	if p.IntraOpWorkers > 1 {
		ctx.SetWorkers(ring.NewWorkers(p.IntraOpWorkers))
	}
	return &Parameters{Params: p, RingCtx: ctx}, nil
}

// MaxLevel returns the top level index (Levels-1).
func (p *Parameters) MaxLevel() int { return p.Levels - 1 }

// QBits returns the bit length of the ciphertext modulus at the given
// level.
func (p *Parameters) QBits(level int) int { return p.RingCtx.BigQ(level).BitLen() }

// SwitchingKeyBytes returns the in-memory size of one switching key
// generated at the given level: KeySwitchDigits(level) digit pairs
// (B, A), each an extended poly of level+1+K limbs of N uint64
// residues, plus the two Shoup companion tables of the same shape.
func (p *Parameters) SwitchingKeyBytes(level int) int64 {
	digits := int64(p.KeySwitchDigits(level))
	return digits * int64(level+1+p.SpecialPrimes) * int64(p.N()) * 8 * 4
}

// GaloisElt returns the Galois group element implementing a cyclic slot
// rotation by `step` (positive = toward lower slot indices, i.e.
// out[i] = in[i+step]). The generator below is fixed by the batching
// encoder's index map; see encoder.go.
func (p *Parameters) GaloisElt(step int) uint64 {
	m := uint64(2 * p.N())
	slots := uint64(p.Slots())
	s := ((int64(step) % int64(slots)) + int64(slots)) % int64(slots)
	elt := uint64(1)
	for i := int64(0); i < s; i++ {
		elt = (elt * slotGenerator) % m
	}
	return elt
}

// slotGenerator is the multiplicative generator whose powers enumerate the
// slot positions of one batching row; 3 matches the index map built in
// encoder.go.
const slotGenerator = 3

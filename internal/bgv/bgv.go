package bgv

import (
	"fmt"
	"sync/atomic"

	"copse/internal/ring"
)

// Plaintext holds an encoded message: a polynomial with coefficients in
// [0, T). Lifting into the ciphertext ring at a given level is cached,
// since plaintext model components (matrix diagonals, masks) are reused
// across many homomorphic operations. The cache is a lock-free
// copy-on-write table: serving-time reads are a single atomic load, and
// PreLift lets model staging populate the scheduled levels up front so
// no query ever pays the embedding (SetLift + NTT) inline.
type Plaintext struct {
	Coeffs []uint64 // length N, values < T

	lifts atomic.Pointer[[]*ring.Poly] // level-indexed NTT-domain lifts
}

// NewPlaintext wraps encoded coefficients.
func NewPlaintext(coeffs []uint64) *Plaintext {
	return &Plaintext{Coeffs: coeffs}
}

// lift returns the NTT-domain embedding of the plaintext at the given
// level, caching the result. Concurrent first lifts at the same level
// may compute the embedding twice; one copy wins the publish and the
// other is dropped, so every caller sees a single canonical poly.
func (pt *Plaintext) lift(ctx *ring.Context, level int) *ring.Poly {
	if tab := pt.lifts.Load(); tab != nil && level < len(*tab) {
		if p := (*tab)[level]; p != nil {
			return p
		}
	}
	p := ctx.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := ctx.Moduli[i].Q
		pi := p.Coeffs[i]
		for j, c := range pt.Coeffs {
			pi[j] = c % q
		}
	}
	ctx.NTT(p)
	return publishAt(&pt.lifts, level, p)
}

// publishAt installs v at a level index of a lock-free copy-on-write
// table unless another goroutine won the race, returning the canonical
// entry either way. Shared by the plaintext lift cache and the
// switching-key view cache.
func publishAt[T any](tab *atomic.Pointer[[]*T], level int, v *T) *T {
	for {
		old := tab.Load()
		var next []*T
		if old != nil {
			if level < len(*old) && (*old)[level] != nil {
				return (*old)[level]
			}
			next = make([]*T, max(len(*old), level+1))
			copy(next, *old)
		} else {
			next = make([]*T, level+1)
		}
		next[level] = v
		if tab.CompareAndSwap(old, &next) {
			return v
		}
	}
}

// PreLift warms the lift cache at the given levels (negative levels are
// ignored) — model staging calls this so the scheduled consumption
// levels of diagonals, masks and thresholds are cache hits from the
// first query on.
func (pt *Plaintext) PreLift(ctx *ring.Context, levels ...int) {
	for _, level := range levels {
		if level >= 0 && level <= ctx.MaxLevel() {
			pt.lift(ctx, level)
		}
	}
}

// Ciphertext is a BGV ciphertext of degree len(C)-1 in the secret key,
// stored in NTT domain. NoiseBits is a running upper-bound estimate of
// log2 of the critical quantity |t·e + m|, used by the evaluator to drive
// automatic modulus switching (HElib does the same).
type Ciphertext struct {
	C         []*ring.Poly
	NoiseBits float64
}

// Level returns the ciphertext level.
func (ct *Ciphertext) Level() int { return ct.C[0].Level() }

// Degree returns the degree of the ciphertext in s (1 for fresh
// ciphertexts, 2 after an unrelinearized multiplication).
func (ct *Ciphertext) Degree() int { return len(ct.C) - 1 }

// Copy returns a deep copy.
func (ct *Ciphertext) Copy() *Ciphertext {
	out := &Ciphertext{NoiseBits: ct.NoiseBits}
	for _, c := range ct.C {
		out.C = append(out.C, c.Copy())
	}
	return out
}

// Encryptor encrypts plaintexts under a public key. Not safe for
// concurrent use (it owns a sampler).
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor seeded from system entropy.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.RingCtx)}
}

// NewSeededEncryptor returns a deterministic encryptor for tests.
func NewSeededEncryptor(params *Parameters, pk *PublicKey, seed uint64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSeededSampler(params.RingCtx, seed)}
}

// Encrypt produces a fresh encryption of pt at the top level:
// (c0, c1) = (B·u + t·e0 + m, A·u + t·e1).
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	return e.EncryptAtLevel(pt, e.params.MaxLevel())
}

// EncryptAtLevel produces a fresh encryption directly at the given level
// (clamped to the chain top): the public key's unused top residues are
// simply not touched, which is the RLWE instance a freshly encrypted,
// then modulus-switched ciphertext would inhabit — minus the switches.
// Level scheduling uses this to land operands at their planned stage
// level for free.
func (e *Encryptor) EncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
	ctx := e.params.RingCtx
	if level > e.params.MaxLevel() {
		level = e.params.MaxLevel()
	}
	if level < 0 {
		level = 0
	}

	u := e.sampler.TernaryPoly(level)
	ctx.NTT(u)

	c0 := ctx.NewPoly(level)
	ctx.MulCoeffs(e.pk.B, u, c0)
	c1 := ctx.NewPoly(level)
	ctx.MulCoeffs(e.pk.A, u, c1)

	e0 := e.sampler.ErrorPoly(level)
	ctx.MulScalar(e0, e.params.T, e0)
	ctx.NTT(e0)
	ctx.Add(c0, e0, c0)

	e1 := e.sampler.ErrorPoly(level)
	ctx.MulScalar(e1, e.params.T, e1)
	ctx.NTT(e1)
	ctx.Add(c1, e1, c1)

	ctx.Add(c0, pt.lift(ctx, level), c0)

	return &Ciphertext{
		C:         []*ring.Poly{c0, c1},
		NoiseBits: FreshNoiseBits(e.params.Params),
	}
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// phase computes c0 + c1·s (+ c2·s²) in coefficient domain at the
// ciphertext's level.
func (d *Decryptor) phase(ct *Ciphertext) *ring.Poly {
	ctx := d.params.RingCtx
	level := ct.Level()
	s := restrict(d.sk.S, level)
	acc := ct.C[0].Copy()
	sPow := s.Copy()
	tmp := ctx.NewPoly(level)
	for i := 1; i < len(ct.C); i++ {
		ctx.MulCoeffs(ct.C[i], sPow, tmp)
		ctx.Add(acc, tmp, acc)
		if i+1 < len(ct.C) {
			ctx.MulCoeffs(sPow, s, sPow)
		}
	}
	ctx.INTT(acc)
	return acc
}

// Decrypt recovers the plaintext coefficients of ct.
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	phi := d.phase(ct)
	return NewPlaintext(d.params.RingCtx.ToCenteredMod(phi, d.params.T))
}

// NoiseBudget returns the remaining noise budget of ct in bits: the
// number of modulus bits left before |t·e + m| reaches Q/2 and decryption
// fails. Negative budgets mean the ciphertext is already undecryptable.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) int {
	phi := d.phase(ct)
	noiseBits := d.params.RingCtx.MaxCenteredBits(phi)
	return d.params.QBits(ct.Level()) - noiseBits - 1
}

func bitsOf(x uint64) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// errNotEnoughLevels is returned when an operation would need a level
// below zero.
var errNotEnoughLevels = fmt.Errorf("bgv: modulus chain exhausted (increase Params.Levels)")

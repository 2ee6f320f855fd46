package bgv

import (
	"fmt"
	"sync/atomic"

	"copse/internal/ring"
)

// SecretKey is a ternary RLWE secret, stored in NTT domain at the top
// level.
type SecretKey struct {
	S *ring.Poly
}

// PublicKey is an RLWE encryption of zero: B = -(A·s + t·e).
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a "foreign" secret s' (s², or an
// automorphism image of s) under s for hybrid key switching: digit j is
// an RLWE sample over the extended modulus Q·P,
// B[j] = -(A[j]·s + t·e_j) + P·s'·[group j], where [group j] is 1 on the
// residues of the j-th run of K chain primes and 0 elsewhere. Each poly
// holds its key level's level+1 Q limbs followed by K P limbs.
//
// Because the gadget factor P·[group j] has the same residues at every
// level, a key generated at level ℓ serves every level ≤ ℓ by dropping
// Q limbs (AtLevel), but cannot serve levels above ℓ — it has no
// residues for those primes. Keys for rotation steps used only by the
// scheduled back half of the pipeline are therefore generated directly at
// their stage level, cutting key material (GenEvaluationKeysAt).
// BS and AS are the Shoup companion tables of B and A, letting the
// digit ⊙ key inner products run division-free.
type SwitchingKey struct {
	B, A   []*ring.Poly
	BS, AS []*ring.PolyShoup

	level int
	views atomic.Pointer[[]*SwitchingKey] // level-indexed truncated views
}

// NewSwitchingKey assembles a switching key from its digit polys (as
// read off the wire), checking every shape against the parameters and
// rebuilding the Shoup tables. The key level follows from the limb
// count; the digit count must match it.
func (p *Parameters) NewSwitchingKey(b, a []*ring.Poly) (*SwitchingKey, error) {
	if len(b) == 0 || len(b) != len(a) {
		return nil, fmt.Errorf("bgv: switching key has %d B and %d A digits", len(b), len(a))
	}
	ctx := p.RingCtx
	level := len(b[0].Coeffs) - 1 - p.SpecialPrimes
	if level < 0 || level > p.MaxLevel() {
		return nil, fmt.Errorf("bgv: switching key has %d limbs; want level+1+%d for a level in [0,%d]",
			len(b[0].Coeffs), p.SpecialPrimes, p.MaxLevel())
	}
	if want := p.KeySwitchDigits(level); len(b) != want {
		return nil, fmt.Errorf("bgv: level-%d switching key has %d digits, want %d", level, len(b), want)
	}
	moduli := append(append([]*ring.Modulus{}, ctx.Moduli[:level+1]...), ctx.P.Moduli...)
	k := &SwitchingKey{B: b, A: a, level: level}
	for j := range b {
		for _, x := range []*ring.Poly{b[j], a[j]} {
			if err := checkPoly(x, moduli, p.N()); err != nil {
				return nil, fmt.Errorf("bgv: switching key digit %d: %w", j, err)
			}
		}
		k.BS = append(k.BS, ctx.ShoupPolyQP(b[j], level))
		k.AS = append(k.AS, ctx.ShoupPolyQP(a[j], level))
	}
	return k, nil
}

// CheckChainPoly verifies a poly that must span the whole ciphertext
// chain in NTT domain, such as a public or secret key read off the wire.
func (p *Parameters) CheckChainPoly(x *ring.Poly) error {
	return checkPoly(x, p.RingCtx.Moduli, p.N())
}

// checkPoly verifies x is an NTT-domain poly over the given moduli: one
// limb per modulus, n residues per limb, each reduced — the key-switch
// and Shoup kernels index and divide by exactly these bounds.
func checkPoly(x *ring.Poly, moduli []*ring.Modulus, n int) error {
	if x == nil || len(x.Coeffs) != len(moduli) {
		got := 0
		if x != nil {
			got = len(x.Coeffs)
		}
		return fmt.Errorf("poly has %d limbs, want %d", got, len(moduli))
	}
	if !x.IsNTT {
		return fmt.Errorf("poly is not in NTT domain")
	}
	for i, row := range x.Coeffs {
		if len(row) != n {
			return fmt.Errorf("poly has degree %d, want %d", len(row), n)
		}
		for _, v := range row {
			if v >= moduli[i].Q {
				return fmt.Errorf("poly limb %d holds unreduced residue %d", i, v)
			}
		}
	}
	return nil
}

// Level returns the highest level this key can serve (the level it was
// generated at).
func (k *SwitchingKey) Level() int { return k.level }

// MaterialBytes returns the in-memory size of the key's polynomials
// (B, A and their Shoup companions).
func (k *SwitchingKey) MaterialBytes() int64 {
	var total int64
	for d := range k.B {
		total += int64(len(k.B[d].Coeffs)) * int64(len(k.B[d].Coeffs[0])) * 8 * 4
	}
	return total
}

// AtLevel returns a view of k for a key switch at the given level: the
// digits that level has, each restricted to the level's Q limbs plus
// the P limbs (and likewise their Shoup companions). A key switch at a
// scheduled-down level therefore runs over fewer digits and limbs than
// the top-level key would suggest. Views share the full key's backing
// arrays (no copying) and are cached per level; the key's own level
// returns k itself.
func (k *SwitchingKey) AtLevel(ctx *ring.Context, level int) *SwitchingKey {
	if level >= k.level {
		return k
	}
	if tab := k.views.Load(); tab != nil && level < len(*tab) {
		if v := (*tab)[level]; v != nil {
			return v
		}
	}
	digits := ctx.Groups(level)
	v := &SwitchingKey{
		B:     make([]*ring.Poly, digits),
		A:     make([]*ring.Poly, digits),
		BS:    make([]*ring.PolyShoup, digits),
		AS:    make([]*ring.PolyShoup, digits),
		level: level,
	}
	for d := 0; d < digits; d++ {
		v.B[d] = &ring.Poly{Coeffs: dropQ(k.B[d].Coeffs, k.level, level), IsNTT: true}
		v.A[d] = &ring.Poly{Coeffs: dropQ(k.A[d].Coeffs, k.level, level), IsNTT: true}
		v.BS[d] = &ring.PolyShoup{S: dropQ(k.BS[d].S, k.level, level)}
		v.AS[d] = &ring.PolyShoup{S: dropQ(k.AS[d].S, k.level, level)}
	}
	return publishAt(&k.views, level, v)
}

// dropQ returns the rows of an extended poly at level `from` restricted
// to level `to`: the first to+1 Q rows followed by the P rows.
func dropQ(rows [][]uint64, from, to int) [][]uint64 {
	out := make([][]uint64, 0, len(rows)-(from-to))
	out = append(out, rows[:to+1]...)
	return append(out, rows[from+1:]...)
}

// EvaluationKeys bundles everything the evaluator (Sally) needs: the
// relinearization key and one switching key per Galois element used for
// rotations.
type EvaluationKeys struct {
	Relin  *SwitchingKey
	Galois map[uint64]*SwitchingKey
}

// MaterialBytes returns the total in-memory key material (relin + all
// Galois keys, Shoup companions included).
func (ek *EvaluationKeys) MaterialBytes() int64 {
	var total int64
	if ek.Relin != nil {
		total += ek.Relin.MaterialBytes()
	}
	for _, k := range ek.Galois {
		total += k.MaterialBytes()
	}
	return total
}

// TopLevelBytes returns the key material the same key set would occupy
// had every key been generated at the chain top — the pre-level-budget
// baseline the -nttjson report compares against.
func (ek *EvaluationKeys) TopLevelBytes(p *Parameters) int64 {
	per := p.SwitchingKeyBytes(p.MaxLevel())
	n := int64(len(ek.Galois))
	if ek.Relin != nil {
		n++
	}
	return n * per
}

// KeyGenerator produces key material. It is not safe for concurrent use.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator returns a generator seeded from the system entropy
// source.
func NewKeyGenerator(params *Parameters) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.RingCtx)}
}

// NewSeededKeyGenerator returns a deterministic generator for tests and
// reproducible experiments.
func NewSeededKeyGenerator(params *Parameters, seed uint64) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSeededSampler(params.RingCtx, seed)}
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	ctx := kg.params.RingCtx
	s := kg.sampler.TernaryPoly(kg.params.MaxLevel())
	ctx.NTT(s)
	return &SecretKey{S: s}
}

// GenPublicKey returns a public encryption key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.params.RingCtx
	level := kg.params.MaxLevel()
	a := kg.sampler.UniformPoly(level, true)
	e := kg.sampler.ErrorPoly(level)
	ctx.MulScalar(e, kg.params.T, e)
	ctx.NTT(e)
	b := ctx.NewPoly(level)
	ctx.MulCoeffs(a, sk.S, b)
	ctx.Add(b, e, b)
	ctx.Neg(b, b)
	return &PublicKey{B: b, A: a}
}

// secretQP returns sk extended to Q_level ∪ P in NTT domain: the
// ternary coefficients are read off one chain limb and lifted to the
// special primes.
func (kg *KeyGenerator) secretQP(sk *SecretKey, level int) *ring.Poly {
	ctx := kg.params.RingCtx
	row := append([]uint64(nil), sk.S.Coeffs[0]...)
	ctx.Moduli[0].INTT(row)
	q := ctx.Moduli[0].Q
	coeffs := make([]int64, len(row))
	for j, v := range row {
		if v > q/2 {
			coeffs[j] = int64(v) - int64(q)
		} else {
			coeffs[j] = int64(v)
		}
	}
	x := ctx.NewPolyQP(level)
	xq, xp := ctx.SplitQP(x, level)
	for i := range xq.Coeffs {
		copy(xq.Coeffs[i], sk.S.Coeffs[i])
	}
	ctx.P.SetLift(coeffs, xp)
	ctx.P.NTT(xp)
	x.IsNTT = true
	return x
}

// genSwitchingKeyAt builds the key switching `target` (extended, NTT
// domain, at the given level) to s, also extended: one digit per group
// of K chain primes at that level.
func (kg *KeyGenerator) genSwitchingKeyAt(target, s *ring.Poly, level int) *SwitchingKey {
	ctx := kg.params.RingCtx
	swk := &SwitchingKey{level: level}
	for j := 0; j < ctx.Groups(level); j++ {
		a := kg.sampler.UniformPolyQP(level, true)
		e := kg.sampler.ErrorPolyQP(level)
		b := ctx.NewPolyQP(level)
		// b = -(a·s + t·e), on the Q and P limbs alike.
		aq, ap := ctx.SplitQP(a, level)
		eq, ep := ctx.SplitQP(e, level)
		sq, sp := ctx.SplitQP(s, level)
		bq, bp := ctx.SplitQP(b, level)
		rlweMask(ctx, kg.params.T, aq, eq, sq, bq)
		rlweMask(ctx.P, kg.params.T, ap, ep, sp, bp)
		// b += P·target on group j's residues.
		lo, hi := ctx.GroupRange(j, level)
		for i := lo; i < hi; i++ {
			q, pMod := ctx.Moduli[i].Q, ctx.PModQ(i)
			bi, ti := b.Coeffs[i], target.Coeffs[i]
			for c := range bi {
				bi[c] = ring.AddMod(bi[c], ring.MulMod(ti[c], pMod, q), q)
			}
		}
		b.IsNTT = true
		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
		swk.BS = append(swk.BS, ctx.ShoupPolyQP(b, level))
		swk.AS = append(swk.AS, ctx.ShoupPolyQP(a, level))
	}
	return swk
}

// rlweMask sets b = -(a·s + t·e) over one context's limbs; e arrives
// in coefficient domain and is consumed.
func rlweMask(c *ring.Context, t uint64, a, e, s, b *ring.Poly) {
	c.MulScalar(e, t, e)
	c.NTT(e)
	c.MulCoeffs(a, s, b)
	c.Add(b, e, b)
	c.Neg(b, b)
}

// GenRelinKey builds the relinearization key (switching s² to s) at the
// chain top.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	ctx := kg.params.RingCtx
	level := kg.params.MaxLevel()
	s := kg.secretQP(sk, level)
	s2 := ctx.NewPolyQP(level)
	sq, sp := ctx.SplitQP(s, level)
	s2q, s2p := ctx.SplitQP(s2, level)
	ctx.MulCoeffs(sq, sq, s2q)
	ctx.P.MulCoeffs(sp, sp, s2p)
	s2.IsNTT = true
	return kg.genSwitchingKeyAt(s2, s, level)
}

// GenGaloisKey builds the switching key for the Galois element g
// (switching σ_g(s) to s) at the chain top.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g uint64) *SwitchingKey {
	return kg.GenGaloisKeyAt(sk, g, kg.params.MaxLevel())
}

// GenGaloisKeyAt builds the Galois key at the given level. The key can
// serve rotations at any level ≤ its own; the evaluator falls back to
// composed power-of-two rotations (whose ladder keys stay at the top)
// when asked to rotate above a key's level.
func (kg *KeyGenerator) GenGaloisKeyAt(sk *SecretKey, g uint64, level int) *SwitchingKey {
	ctx := kg.params.RingCtx
	s := kg.secretQP(sk, level)
	sg := ctx.NewPolyQP(level)
	ctx.AutomorphismNTT(s, g, sg)
	return kg.genSwitchingKeyAt(sg, s, level)
}

// GenEvaluationKeys builds the relinearization key plus Galois keys for
// the given rotation steps, all at the chain top. Step 0 is ignored.
func (kg *KeyGenerator) GenEvaluationKeys(sk *SecretKey, steps []int) (*EvaluationKeys, error) {
	return kg.GenEvaluationKeysAt(sk, steps, nil)
}

// GenEvaluationKeysAt is GenEvaluationKeys under a per-step level
// budget: a step with an entry in stepLevels gets its Galois key
// generated at that level (clamped to the chain) instead of the top —
// the right choice for steps a static level schedule proves are only
// ever rotated in the scheduled-down back half of a pipeline. Steps
// without an entry (and the relinearization key, which serves every
// stage) stay at the top. When two steps share a Galois element the
// deeper requirement wins.
func (kg *KeyGenerator) GenEvaluationKeysAt(sk *SecretKey, steps []int, stepLevels map[int]int) (*EvaluationKeys, error) {
	top := kg.params.MaxLevel()
	ek := &EvaluationKeys{Galois: make(map[uint64]*SwitchingKey)}
	ek.Relin = kg.GenRelinKey(sk)
	want := make(map[uint64]int)
	var order []uint64 // deterministic generation order for seeded runs
	for _, s := range steps {
		if s%kg.params.Slots() == 0 {
			continue
		}
		lvl := top
		if l, ok := stepLevels[s]; ok {
			lvl = min(max(l, 0), top)
		}
		g := kg.params.GaloisElt(s)
		if cur, seen := want[g]; !seen {
			want[g] = lvl
			order = append(order, g)
		} else if lvl > cur {
			want[g] = lvl
		}
	}
	for _, g := range order {
		ek.Galois[g] = kg.GenGaloisKeyAt(sk, g, want[g])
	}
	return ek, nil
}

// PowerOfTwoSteps returns the rotation steps ±1, ±2, ±4, ... up to
// slots/2, from which any rotation can be composed.
func PowerOfTwoSteps(slots int) []int {
	var steps []int
	for s := 1; s < slots; s <<= 1 {
		steps = append(steps, s, -s)
	}
	return steps
}

// restrict returns a view of p at the given (lower or equal) level,
// sharing the underlying residues.
func restrict(p *ring.Poly, level int) *ring.Poly {
	if p.Level() < level {
		panic(fmt.Sprintf("bgv: cannot restrict level-%d poly to level %d", p.Level(), level))
	}
	return &ring.Poly{Coeffs: p.Coeffs[:level+1], IsNTT: p.IsNTT}
}

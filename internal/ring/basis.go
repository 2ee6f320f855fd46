package ring

import "fmt"

// Hybrid key switching in RNS (Gentry–Halevi–Smart 2012, Han–Ki 2020).
//
// A context built by NewContextQP carries, beside the ciphertext chain
// Q = q_0···q_L in Moduli, a special modulus P = p_0···p_{K-1} held in
// the separate context P. An extended polynomial at level ℓ lives over
// Q_ℓ ∪ P: a Poly whose first ℓ+1 limbs are its Q residues and whose
// last K limbs are its P residues. Key switching then runs on
// word-sized residues only:
//
//   - ModUp splits a level-ℓ polynomial into digits — its residues on
//     fixed groups of α = K consecutive Q primes — and extends each
//     digit to all of Q_ℓ ∪ P by fast basis conversion.
//   - KeySwitchDot multiplies the extended digits against a switching
//     key, optionally through a Galois automorphism applied in the NTT
//     domain (a permutation of the evaluation points), so hoisted
//     rotations share one ModUp.
//   - ModDown divides the extended result by P with the BGV rescale
//     (x − δ)/P, δ ≡ x (mod P), δ ≡ 0 (mod t). ModSwitchDown is the
//     same rescale dropping one chain prime.

// convGroup holds the fast-basis-conversion constants of one digit
// group: Q limbs [lo, hi) with product Q_j.
type convGroup struct {
	lo, hi int
	// hatInv[i-lo] = [(Q_j/q_i)^{-1}]_{q_i}, with Shoup companions.
	hatInv, hatInvS []uint64
	// hat[g][i-lo] = [Q_j/q_i]_{r_g} for every target modulus r_g, g a
	// global index (Q limbs 0..L, then P limbs L+1..L+K); nil rows for
	// the group's own limbs.
	hat, hatS [][]uint64
}

// rescaleTab holds the constants for dividing a polynomial by the
// product D of the `drop` primes, t-aware, keeping the Q limbs.
type rescaleTab struct {
	drop []*Modulus
	// zInv[k] = [(t·D/p_k)^{-1}]_{p_k}: one multiply turns a dropped
	// residue into its basis-conversion input.
	zInv, zInvS []uint64
	// c[i][k] = [t·D/p_k]_{q_i}; negShift[i] = [−Σ_k p_k·c[i][k]]_{q_i}
	// undoes the +p_k offset that keeps the centered inputs unsigned.
	c, cS    [][]uint64
	negShift []uint64
	// dInv[i] = [D^{-1}]_{q_i}.
	dInv, dInvS []uint64
}

// newRescaleTab builds the constants for dividing by the drop primes
// with the given keep primes remaining.
func newRescaleTab(t uint64, drop, keep []*Modulus) *rescaleTab {
	tab := &rescaleTab{drop: drop}
	for k, pk := range drop {
		inv := InvMod(MulMod(t%pk.Q, prodMod(drop, k, pk.Q), pk.Q), pk.Q)
		tab.zInv = append(tab.zInv, inv)
		tab.zInvS = append(tab.zInvS, ShoupPrecomp(inv, pk.Q))
	}
	for _, qi := range keep {
		q := qi.Q
		c := make([]uint64, len(drop))
		cs := make([]uint64, len(drop))
		var shift uint64
		for k, pk := range drop {
			v := MulMod(t%q, prodMod(drop, k, q), q)
			c[k], cs[k] = v, ShoupPrecomp(v, q)
			shift = AddMod(shift, MulMod(pk.Q%q, v, q), q)
		}
		inv := InvMod(prodMod(drop, -1, q), q)
		tab.c = append(tab.c, c)
		tab.cS = append(tab.cS, cs)
		tab.dInv = append(tab.dInv, inv)
		tab.dInvS = append(tab.dInvS, ShoupPrecomp(inv, q))
		tab.negShift = append(tab.negShift, NegMod(shift, q))
	}
	return tab
}

// buildRescale precomputes the one-prime modulus-switch tables of every
// level (level l drops q_l).
func (ctx *Context) buildRescale() {
	ctx.ms = make([]*rescaleTab, len(ctx.Moduli))
	for l := 1; l < len(ctx.Moduli); l++ {
		ctx.ms[l] = newRescaleTab(ctx.T, ctx.Moduli[l:l+1], ctx.Moduli[:l])
	}
}

// NewContextQP is NewContext plus a special modulus: the primes p (each
// ≡ 1 mod 2n and mod t, distinct from the chain) form P, held in ctx.P,
// and the key-switching digit groups have α = len(p) primes each.
func NewContextQP(logN int, q, p []uint64, t uint64) (*Context, error) {
	ctx, err := NewContext(logN, q, t)
	if err != nil {
		return nil, err
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("ring: empty special modulus")
	}
	seen := make(map[uint64]bool, len(q))
	for _, qi := range q {
		seen[qi] = true
	}
	for _, pk := range p {
		if seen[pk] {
			return nil, fmt.Errorf("ring: special prime %d repeats a chain or special prime", pk)
		}
		seen[pk] = true
	}
	if ctx.P, err = NewContext(logN, p, t); err != nil {
		return nil, err
	}
	ctx.buildGroups()
	ctx.down = newRescaleTab(t, ctx.P.Moduli, ctx.Moduli)
	ctx.downSwitch = make([]*rescaleTab, len(ctx.Moduli))
	for l := 1; l < len(ctx.Moduli); l++ {
		drop := append([]*Modulus{ctx.Moduli[l]}, ctx.P.Moduli...)
		ctx.downSwitch[l] = newRescaleTab(t, drop, ctx.Moduli[:l])
	}
	for _, m := range ctx.Moduli {
		v := prodMod(ctx.P.Moduli, -1, m.Q)
		ctx.pModQ = append(ctx.pModQ, v)
		ctx.pModQS = append(ctx.pModQS, ShoupPrecomp(v, m.Q))
	}
	return ctx, nil
}

// buildGroups precomputes the basis-conversion constants of every digit
// group any level can form: full groups [jα, jα+α) and, for each level
// whose limb count is not a multiple of α, its partial top group.
func (ctx *Context) buildGroups() {
	alpha := len(ctx.P.Moduli)
	top := len(ctx.Moduli)
	all := append(append([]*Modulus{}, ctx.Moduli...), ctx.P.Moduli...)
	ctx.groups = make([][]*convGroup, (top+alpha-1)/alpha)
	for j := range ctx.groups {
		ctx.groups[j] = make([]*convGroup, alpha)
		for size := 1; size <= alpha && j*alpha+size <= top; size++ {
			ctx.groups[j][size-1] = newConvGroup(all, j*alpha, j*alpha+size)
		}
	}
}

func newConvGroup(all []*Modulus, lo, hi int) *convGroup {
	g := &convGroup{lo: lo, hi: hi, hat: make([][]uint64, len(all)), hatS: make([][]uint64, len(all))}
	src := all[lo:hi]
	for i, m := range src {
		inv := InvMod(prodMod(src, i, m.Q), m.Q)
		g.hatInv = append(g.hatInv, inv)
		g.hatInvS = append(g.hatInvS, ShoupPrecomp(inv, m.Q))
	}
	for r, m := range all {
		if r >= lo && r < hi {
			continue
		}
		for i := range src {
			v := prodMod(src, i, m.Q)
			g.hat[r] = append(g.hat[r], v)
			g.hatS[r] = append(g.hatS[r], ShoupPrecomp(v, m.Q))
		}
	}
	return g
}

// prodMod returns the product of the primes of ms, leaving out index
// skip (−1 for none), reduced mod q.
func prodMod(ms []*Modulus, skip int, q uint64) uint64 {
	v := uint64(1)
	for k, m := range ms {
		if k != skip {
			v = MulMod(v, m.Q%q, q)
		}
	}
	return v
}

// SpecialPrimes returns K, the number of special primes (0 without a
// special modulus).
func (ctx *Context) SpecialPrimes() int {
	if ctx.P == nil {
		return 0
	}
	return len(ctx.P.Moduli)
}

// PModQ returns [P]_{q_i}: a switching key's gadget factor on chain
// limb i of its digit's group.
func (ctx *Context) PModQ(i int) uint64 { return ctx.pModQ[i] }

// Groups returns the number of key-switching digits at a level: the
// level's ℓ+1 limbs in groups of α = K.
func (ctx *Context) Groups(level int) int {
	alpha := ctx.SpecialPrimes()
	return (level + alpha) / alpha
}

// GroupRange returns the Q limbs [lo, hi) of digit group j at a level.
func (ctx *Context) GroupRange(j, level int) (lo, hi int) {
	alpha := ctx.SpecialPrimes()
	return j * alpha, min(j*alpha+alpha, level+1)
}

func (ctx *Context) group(j, level int) *convGroup {
	lo, hi := ctx.GroupRange(j, level)
	return ctx.groups[j][hi-lo-1]
}

// extModulus returns the modulus of limb x of an extended polynomial at
// a level and its global index (Q limbs 0..L, P limbs L+1..L+K).
func (ctx *Context) extModulus(level, x int) (*Modulus, int) {
	if x <= level {
		return ctx.Moduli[x], x
	}
	k := x - level - 1
	return ctx.P.Moduli[k], len(ctx.Moduli) + k
}

// SplitQP returns views of an extended polynomial's Q limbs (at the
// given level) and P limbs, sharing its rows: ctx ops apply to the
// first, ctx.P ops to the second.
func (ctx *Context) SplitQP(x *Poly, level int) (q, p *Poly) {
	return &Poly{Coeffs: x.Coeffs[:level+1], IsNTT: x.IsNTT},
		&Poly{Coeffs: x.Coeffs[level+1:], IsNTT: x.IsNTT}
}

// NewPolyQP allocates a zero extended polynomial at a level.
func (ctx *Context) NewPolyQP(level int) *Poly { return ctx.NewPoly(level + ctx.SpecialPrimes()) }

// ShoupPolyQP is ShoupPoly for an extended polynomial at a level.
func (ctx *Context) ShoupPolyQP(x *Poly, level int) *PolyShoup {
	q, p := ctx.SplitQP(x, level)
	return &PolyShoup{S: append(ctx.ShoupPoly(q).S, ctx.P.ShoupPoly(p).S...)}
}

// ModUp returns the key-switching digits of c (NTT domain, level ℓ)
// extended to Q_ℓ ∪ P, in NTT domain: Groups(ℓ) extended polynomials
// from the pool. Digit j equals c on group j's own limbs (copied, no
// transform) and its fast basis conversion elsewhere — a lift of
// [c]_{Q_j} that may exceed it by a small multiple of Q_j, which the
// gadget absorbs.
func (ctx *Context) ModUp(c *Poly) []*Poly {
	if !c.IsNTT {
		panic("ring: ModUp requires NTT-domain input")
	}
	level := c.Level()
	ext := level + 1 + ctx.SpecialPrimes()
	alpha := ctx.SpecialPrimes()

	tier := ctx.tier

	// z_i = [c_i · (Q_j/q_i)^{-1}]_{q_i} in coefficient domain.
	z := ctx.GetPoly(level)
	scale := func(i int) {
		row := z.Coeffs[i]
		copy(row, c.Coeffs[i])
		m := ctx.Moduli[i]
		m.INTT(row)
		g := ctx.group(i/alpha, level)
		mulScalarRow(tier, m.Q, g.hatInv[i-g.lo], g.hatInvS[i-g.lo], row, row)
	}
	digits := make([]*Poly, ctx.Groups(level))
	for j := range digits {
		digits[j] = ctx.GetPoly(ext - 1)
		digits[j].IsNTT = true
	}
	extend := func(t int) {
		j, x := t/ext, t%ext
		g := ctx.group(j, level)
		row := digits[j].Coeffs[x]
		if x >= g.lo && x < g.hi {
			copy(row, c.Coeffs[x])
			return
		}
		m, gi := ctx.extModulus(level, x)
		basisConvRow(tier, m.Q, z.Coeffs[g.lo:g.hi], g.hat[gi], g.hatS[gi], 0, row)
		m.NTT(row)
	}
	if ws, _ := ctx.limbWorkers(ext, false); ws != nil {
		ws.Run(level+1, scale)
		ws.Run(len(digits)*ext, extend)
	} else {
		for i := 0; i <= level; i++ {
			scale(i)
		}
		for t := 0; t < len(digits)*ext; t++ {
			extend(t)
		}
	}
	ctx.PutPoly(z)
	return digits
}

// basisConvRow sets out = e + Σ_k src[k]·hat[k] mod q,
// coefficient-wise. The sources are residues modulo other primes (the
// Shoup multiply takes any input below 2^64).
func basisConvRow(tier kernelTier, q uint64, src [][]uint64, hat, hatS []uint64, e uint64, out []uint64) {
	mulScalarShiftRow(tier, q, hat[0], hatS[0], e, src[0], out)
	for k := 1; k < len(src); k++ {
		mulScalarAddRow(tier, q, hat[k], hatS[k], src[k], out)
	}
}

func mulScalarShiftRowScalar(q, c, cs, e uint64, a, out []uint64) {
	a = a[:len(out)]
	for j, v := range a {
		out[j] = AddMod(MulModShoup(v, c, cs, q), e, q)
	}
}

// mulScalarShiftRow sets out = a·c + e mod q (a any value below 2^64).
func mulScalarShiftRow(tier kernelTier, q, c, cs, e uint64, a, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		mulScalarShiftVecAsm(tier, q, c, cs, e, a, out)
		return
	}
	mulScalarShiftRowScalar(q, c, cs, e, a, out)
}

func mulScalarAddRowScalar(q, c, cs uint64, a, out []uint64) {
	a = a[:len(out)]
	for j, v := range a {
		out[j] = AddMod(out[j], MulModShoup(v, c, cs, q), q)
	}
}

// mulScalarAddRow sets out += a·c mod q (a any value below 2^64).
func mulScalarAddRow(tier kernelTier, q, c, cs uint64, a, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		mulScalarAddVecAsm(tier, q, c, cs, a, out)
		return
	}
	mulScalarAddRowScalar(q, c, cs, a, out)
}

func rescaleRowScalar(q, c, cs uint64, a, b, out []uint64) {
	a, b = a[:len(out)], b[:len(out)]
	for j, v := range a {
		out[j] = MulModShoup(SubMod(v, b[j], q), c, cs, q)
	}
}

// rescaleRow sets out = (a − b)·c mod q (a, b reduced).
func rescaleRow(tier kernelTier, q, c, cs uint64, a, b, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		rescaleVecAsm(tier, q, c, cs, a, b, out)
		return
	}
	rescaleRowScalar(q, c, cs, a, b, out)
}

// KeySwitchDot sets acc0 = Σ_j σ_g(digits[j]) ⊙ b[j] and
// acc1 = Σ_j σ_g(digits[j]) ⊙ a[j] over the limbs of extended
// polynomials (NTT domain), where σ_g is the Galois automorphism
// x → x^g applied as an evaluation-point permutation; g = 1 is the
// identity. The key polys may hold more Q limbs than the accumulators:
// b[j] and a[j] must be views at the accumulators' level.
func (ctx *Context) KeySwitchDot(digits []*Poly, g uint64, b, a []*Poly, bs, as []*PolyShoup, acc0, acc1 *Poly) {
	ext := len(acc0.Coeffs)
	level := ext - 1 - ctx.SpecialPrimes()
	var perm []uint32
	if g != 1 {
		perm = ctx.nttPerm(g)
	}
	tier := ctx.tier
	limb := func(x int) {
		m, _ := ctx.extModulus(level, x)
		o0, o1 := acc0.Coeffs[x], acc1.Coeffs[x]
		clear(o0)
		clear(o1)
		var tmp []uint64
		if perm != nil {
			tmp = ctx.getRow()
		}
		for j, d := range digits {
			src := d.Coeffs[x]
			if perm != nil {
				permuteRow(perm, src, tmp)
				src = tmp
			}
			mulShoupAddRow(tier, m.Q, src, b[j].Coeffs[x], bs[j].S[x], o0)
			mulShoupAddRow(tier, m.Q, src, a[j].Coeffs[x], as[j].S[x], o1)
		}
		if tmp != nil {
			ctx.putRow(tmp)
		}
	}
	if ws, _ := ctx.limbWorkers(ext, false); ws != nil {
		ws.Run(ext, limb)
	} else {
		for x := 0; x < ext; x++ {
			limb(x)
		}
	}
	acc0.IsNTT, acc1.IsNTT = true, true
}

// ModDown sets out = add + x/P for an extended polynomial x (NTT
// domain) at out's level: the BGV rescale (x − δ)/P with δ ≡ x (mod P)
// and δ ≡ 0 (mod t), so the plaintext is preserved (P ≡ 1 mod t). add
// may be nil; out may alias add. x is left intact.
func (ctx *Context) ModDown(x, add, out *Poly) {
	if !x.IsNTT {
		panic("ring: ModDown requires NTT-domain input")
	}
	level := out.Level()
	var addRows [][]uint64
	if add != nil {
		addRows = add.Coeffs
	}
	ctx.rescale(ctx.down, x.Coeffs[:level+1], x.Coeffs[level+1:], addRows, out.Coeffs)
	out.IsNTT = true
}

// ModDownSwitch fuses ModDown with the modulus switch that follows a
// relinearization: for an extended x at level ℓ and c at level ℓ it sets
// out (level ℓ−1) = (P·c + x)/(P·q_ℓ), one t-aware rescale dropping q_ℓ
// and P together — the same result ModSwitchDown(c + ModDown(x)) would
// round to, without the level-ℓ transforms in between. x is consumed.
func (ctx *Context) ModDownSwitch(x, c, out *Poly) {
	if !x.IsNTT || !c.IsNTT {
		panic("ring: ModDownSwitch requires NTT-domain input")
	}
	level := c.Level()
	if level < 1 || out.Level() != level-1 {
		panic("ring: ModDownSwitch needs level ≥ 1 and an output one level down")
	}
	tier := ctx.tier
	fold := func(i int) {
		mulScalarAddRow(tier, ctx.Moduli[i].Q, ctx.pModQ[i], ctx.pModQS[i], c.Coeffs[i], x.Coeffs[i])
	}
	if ws, _ := ctx.limbWorkers(level+1, true); ws != nil {
		ws.Run(level+1, fold)
	} else {
		for i := 0; i <= level; i++ {
			fold(i)
		}
	}
	ctx.rescale(ctx.downSwitch[level], x.Coeffs[:level], x.Coeffs[level:], nil, out.Coeffs)
	out.IsNTT = true
}

// ModSwitchDown performs the exact BGV modulus switch, dropping the top
// prime q_l: it replaces c by (c - δ)/q_l where δ ≡ c (mod q_l) and
// δ ≡ 0 (mod t), with δ centered so the added noise is minimal. Because
// every prime is ≡ 1 mod t, the plaintext is preserved without scaling.
// The input must be in NTT domain and at level ≥ 1.
func (ctx *Context) ModSwitchDown(p *Poly) {
	if !p.IsNTT {
		panic("ring: ModSwitchDown requires NTT-domain input")
	}
	l := p.Level()
	if l < 1 {
		panic("ring: ModSwitchDown at level 0")
	}
	ctx.rescale(ctx.ms[l], p.Coeffs[:l], p.Coeffs[l:], nil, p.Coeffs[:l])
	p.Coeffs = p.Coeffs[:l]
}

// rescale writes out_i = add_i + (keep_i − δ_i)·D^{-1} mod q_i for every
// keep limb i (NTT domain), D the product of tab's drop primes whose
// residues are dropRows: δ ≡ x (mod D), δ ≡ 0 (mod t), centered per
// dropped prime. add may be nil; out may alias keep or add.
func (ctx *Context) rescale(tab *rescaleTab, keep, dropRows, add, out [][]uint64) {
	// z_k = [x_k · (t·D/p_k)^{-1}]_{p_k} in coefficient domain, carried
	// shifted into (p_k/2, 3p_k/2] so the per-prime conversion below is
	// branch-free: the centered value is z_k − p_k.
	zu := make([][]uint64, len(dropRows))
	for k, pk := range tab.drop {
		row := ctx.getRow()
		copy(row, dropRows[k])
		pk.INTT(row)
		p, half := pk.Q, pk.Q>>1
		zi, zis := tab.zInv[k], tab.zInvS[k]
		for j, v := range row[:ctx.N] {
			v = MulModShoup(v, zi, zis, p)
			if v <= half {
				v += p
			}
			row[j] = v
		}
		zu[k] = row
	}
	tier := ctx.tier
	perPrime := func(i int) {
		m := ctx.Moduli[i]
		q := m.Q
		delta := ctx.getRow()
		basisConvRow(tier, q, zu, tab.c[i], tab.cS[i], tab.negShift[i], delta)
		m.NTT(delta)
		if add == nil {
			rescaleRow(tier, q, tab.dInv[i], tab.dInvS[i], keep[i], delta, out[i])
		} else {
			rescaleRow(tier, q, tab.dInv[i], tab.dInvS[i], keep[i], delta, delta)
			addRow(tier, q, add[i], delta, out[i])
		}
		ctx.putRow(delta)
	}
	m := len(keep)
	if ws, _ := ctx.limbWorkers(m, false); ws != nil {
		ws.Run(m, perPrime)
	} else {
		for i := 0; i < m; i++ {
			perPrime(i)
		}
	}
	for _, row := range zu {
		ctx.putRow(row)
	}
}

// AutomorphismNTT applies the Galois map x → x^g (g odd) to an
// NTT-domain polynomial of any limb count (Q, P or extended): in the
// evaluation domain σ_g only permutes the evaluation points, so no
// transform and no modulus is involved.
func (ctx *Context) AutomorphismNTT(a *Poly, g uint64, out *Poly) {
	if !a.IsNTT {
		panic("ring: AutomorphismNTT requires NTT-domain input")
	}
	if a == out {
		panic("ring: AutomorphismNTT cannot run in place")
	}
	perm := ctx.nttPerm(g)
	m := len(out.Coeffs)
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { permuteRow(perm, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			permuteRow(perm, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = true
}

// permuteRow sets out[k] = a[perm[k]].
func permuteRow(perm []uint32, a, out []uint64) {
	out = out[:len(perm)]
	for k, src := range perm {
		out[k] = a[src]
	}
}

// nttPerm returns the evaluation-point permutation of σ_g, cached per
// element. NTT slot k holds a(ψ^{e_k}) with e_k = 2·bitrev(k)+1
// (bit-reversed Cooley–Tukey order), and σ_g(a)(ψ^e) = a(ψ^{e·g}), so
// slot k of σ_g(a) is slot bitrev((e_k·g mod 2N − 1)/2) of a.
func (ctx *Context) nttPerm(g uint64) []uint32 {
	if v, ok := ctx.perms.Load(g); ok {
		return v.([]uint32)
	}
	n := uint64(ctx.N)
	mask := 2*n - 1
	perm := make([]uint32, n)
	for k := range perm {
		e := ((2*bitrev(uint64(k), ctx.LogN) + 1) * g) & mask
		perm[k] = uint32(bitrev((e-1)/2, ctx.LogN))
	}
	v, _ := ctx.perms.LoadOrStore(g, perm)
	return v.([]uint32)
}

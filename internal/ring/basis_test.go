package ring

import (
	"math/big"
	"testing"
)

// qpTestContext builds N=64 with four 45-bit chain primes and a special
// modulus of the given size.
func qpTestContext(t *testing.T, levels, special int) *Context {
	t.Helper()
	const logN = 6
	const plainT = 257
	primes, err := GeneratePrimes(45, uint64(2*(1<<logN))*plainT, levels+special)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
	if err != nil {
		t.Fatalf("NewContextQP: %v", err)
	}
	return ctx
}

// gadgetKey returns the noiseless switching key from s' = 1: digit j is
// P on group j's limbs and 0 elsewhere, so ModDown(⟨ModUp(c), key⟩)
// must return c exactly.
func gadgetKey(ctx *Context, level int) ([]*Poly, []*PolyShoup) {
	var key []*Poly
	var keyS []*PolyShoup
	for j := 0; j < ctx.Groups(level); j++ {
		k := ctx.NewPolyQP(level)
		k.IsNTT = true
		lo, hi := ctx.GroupRange(j, level)
		for i := lo; i < hi; i++ {
			for c := range k.Coeffs[i] {
				k.Coeffs[i][c] = ctx.PModQ(i)
			}
		}
		key = append(key, k)
		keyS = append(keyS, ctx.ShoupPolyQP(k, level))
	}
	return key, keyS
}

// TestModUpDigitsLiftTheirGroup checks every extended digit: on its own
// group it is the input, and on every other limb it is the residue of
// one integer lift of [c]_{Q_j} below K·Q_j.
func TestModUpDigitsLiftTheirGroup(t *testing.T) {
	ctx := qpTestContext(t, 5, 2)
	s := NewSeededSampler(ctx, 11)
	for level := 0; level <= ctx.MaxLevel(); level++ {
		c := s.UniformPoly(level, true)
		digits := ctx.ModUp(c)
		if len(digits) != ctx.Groups(level) {
			t.Fatalf("level %d: %d digits, want %d", level, len(digits), ctx.Groups(level))
		}
		cc := c.Copy()
		ctx.INTT(cc)
		for j, d := range digits {
			lo, hi := ctx.GroupRange(j, level)
			dc := d.Copy()
			qv, pv := ctx.SplitQP(dc, level)
			ctx.INTT(qv)
			ctx.P.INTT(pv)
			qj := big.NewInt(1)
			for i := lo; i < hi; i++ {
				qj.Mul(qj, new(big.Int).SetUint64(ctx.Moduli[i].Q))
			}
			for k := 0; k < ctx.N; k++ {
				// CRT-reconstruct [c]_{Q_j} from the group's limbs.
				v := new(big.Int)
				for i := lo; i < hi; i++ {
					if dc.Coeffs[i][k] != cc.Coeffs[i][k] {
						t.Fatalf("level %d digit %d: own limb %d differs from input", level, j, i)
					}
					q := new(big.Int).SetUint64(ctx.Moduli[i].Q)
					hat := new(big.Int).Div(qj, q)
					inv := new(big.Int).ModInverse(new(big.Int).Mod(hat, q), q)
					term := new(big.Int).SetUint64(cc.Coeffs[i][k])
					term.Mul(term, inv).Mod(term, q).Mul(term, hat)
					v.Add(v, term)
				}
				v.Mod(v, qj)
				for x := range dc.Coeffs {
					if x >= lo && x < hi {
						continue
					}
					m, _ := ctx.extModulus(level, x)
					mb := new(big.Int).SetUint64(m.Q)
					ok := false
					for u := int64(0); u < int64(hi-lo) && !ok; u++ {
						lift := new(big.Int).Mul(qj, big.NewInt(u))
						lift.Add(lift, v).Mod(lift, mb)
						ok = lift.Uint64() == dc.Coeffs[x][k]
					}
					if !ok {
						t.Fatalf("level %d digit %d limb %d coeff %d: not a small lift of the group residue", level, j, x, k)
					}
				}
			}
		}
		ctx.PutPolys(digits)
	}
}

// TestKeySwitchGadgetIdentity runs the full ModUp → KeySwitchDot →
// ModDown path against the noiseless gadget key: the result must be the
// input bit for bit, or its NTT-domain automorphism image.
func TestKeySwitchGadgetIdentity(t *testing.T) {
	for _, special := range []int{1, 2, 3} {
		ctx := qpTestContext(t, 4, special)
		s := NewSeededSampler(ctx, 12)
		for level := 0; level <= ctx.MaxLevel(); level++ {
			key, keyS := gadgetKey(ctx, level)
			c := s.UniformPoly(level, true)
			digits := ctx.ModUp(c)
			for _, g := range []uint64{1, 5, 2*uint64(ctx.N) - 1} {
				acc0, acc1 := ctx.NewPolyQP(level), ctx.NewPolyQP(level)
				ctx.KeySwitchDot(digits, g, key, key, keyS, keyS, acc0, acc1)
				got := ctx.NewPoly(level)
				ctx.ModDown(acc0, nil, got)
				want := c.Copy()
				if g != 1 {
					ctx.AutomorphismNTT(c, g, want)
				}
				if !polysEqual(got, want) {
					t.Fatalf("K=%d level %d g=%d: gadget key switch is not the identity", special, level, g)
				}
				// The add operand may alias the output.
				sum := s.UniformPoly(level, true)
				wantSum := ctx.NewPoly(level)
				ctx.Add(sum, want, wantSum)
				ctx.ModDown(acc0, sum, sum)
				if !polysEqual(sum, wantSum) {
					t.Fatalf("K=%d level %d g=%d: ModDown into its add operand is wrong", special, level, g)
				}
			}
		}
	}
}

// TestModDownSwitchIsOneRescale: after a noiseless gadget switch the
// extended accumulator is exactly P·c, and the fused rescale by q_ℓ·P
// must then equal the one-prime modulus switch of c + a bit for bit.
func TestModDownSwitchIsOneRescale(t *testing.T) {
	ctx := qpTestContext(t, 5, 3)
	s := NewSeededSampler(ctx, 15)
	for level := 1; level <= ctx.MaxLevel(); level++ {
		key, keyS := gadgetKey(ctx, level)
		c := s.UniformPoly(level, true)
		a := s.UniformPoly(level, true)
		digits := ctx.ModUp(c)
		acc0, acc1 := ctx.NewPolyQP(level), ctx.NewPolyQP(level)
		ctx.KeySwitchDot(digits, 1, key, key, keyS, keyS, acc0, acc1)
		got := ctx.NewPoly(level - 1)
		ctx.ModDownSwitch(acc0, a, got)
		want := ctx.NewPoly(level)
		ctx.Add(c, a, want)
		ctx.ModSwitchDown(want)
		if !polysEqual(got, want) {
			t.Fatalf("level %d: fused ModDown+switch differs from ModSwitchDown(c+a)", level)
		}
	}
}

// TestModDownDividesByP checks the t-aware rescale on x = P·a + t·e:
// the result is a up to a multiple of t smaller than t·K in every
// coefficient.
func TestModDownDividesByP(t *testing.T) {
	ctx := qpTestContext(t, 4, 3)
	s := NewSeededSampler(ctx, 13)
	level := ctx.MaxLevel()
	a := s.UniformPoly(level, false)
	x := ctx.NewPolyQP(level)
	qv, pv := ctx.SplitQP(x, level)
	pProd := big.NewInt(1)
	for _, p := range ctx.P.Moduli {
		pProd.Mul(pProd, new(big.Int).SetUint64(p.Q))
	}
	for i := range qv.Coeffs {
		q := ctx.Moduli[i].Q
		pm := new(big.Int).Mod(pProd, new(big.Int).SetUint64(q)).Uint64()
		for k, v := range a.Coeffs[i] {
			qv.Coeffs[i][k] = MulMod(v, pm, q)
		}
	}
	e := s.ErrorPolyQP(level)
	eq, ep := ctx.SplitQP(e, level)
	ctx.MulScalar(eq, ctx.T, eq)
	ctx.P.MulScalar(ep, ctx.T, ep)
	ctx.Add(qv, eq, qv)
	ctx.P.Add(pv, ep, pv)
	ctx.NTT(qv)
	ctx.P.NTT(pv)
	x.IsNTT = true

	out := ctx.NewPoly(level)
	ctx.ModDown(x, nil, out)
	ctx.INTT(out)
	diff := ctx.NewPoly(level)
	ctx.Sub(out, a, diff)
	if got := ctx.ToCenteredMod(diff, ctx.T); !allZero(got) {
		t.Fatalf("ModDown changed the residue mod t")
	}
	if bits, limit := ctx.MaxCenteredBits(diff), bitLen(ctx.T*3); bits > limit {
		t.Fatalf("ModDown error has %d bits, want ≤ %d", bits, limit)
	}
}

func allZero(xs []uint64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

func bitLen(x uint64) int { return new(big.Int).SetUint64(x).BitLen() }

// TestAutomorphismNTTMatchesCoefficientDomain pins the evaluation-point
// permutation to the coefficient-domain automorphism.
func TestAutomorphismNTTMatchesCoefficientDomain(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 14)
	a := s.UniformPoly(ctx.MaxLevel(), false)
	for _, g := range []uint64{3, 5, 9, 2*uint64(ctx.N) - 1} {
		want := ctx.NewPoly(ctx.MaxLevel())
		ctx.Automorphism(a, g, want)
		ctx.NTT(want)
		an := a.Copy()
		ctx.NTT(an)
		got := ctx.NewPoly(ctx.MaxLevel())
		ctx.AutomorphismNTT(an, g, got)
		if !polysEqual(got, want) {
			t.Fatalf("g=%d: NTT-domain automorphism differs", g)
		}
	}
}

package ring

import "math/big"

// crtLevel holds the constants for reconstructing integers from their RNS
// residues at one level of the prime chain.
type crtLevel struct {
	bigQ  *big.Int   // product of active primes
	halfQ *big.Int   // bigQ / 2, for centering
	qiHat []*big.Int // bigQ / q_i
	inv   []uint64   // (bigQ/q_i)^{-1} mod q_i
}

func (ctx *Context) buildCRT() {
	ctx.crt = make([]*crtLevel, len(ctx.Moduli))
	for level := range ctx.Moduli {
		cl := &crtLevel{bigQ: big.NewInt(1)}
		for i := 0; i <= level; i++ {
			cl.bigQ = new(big.Int).Mul(cl.bigQ, new(big.Int).SetUint64(ctx.Moduli[i].Q))
		}
		cl.halfQ = new(big.Int).Rsh(cl.bigQ, 1)
		for i := 0; i <= level; i++ {
			q := ctx.Moduli[i].Q
			hat := new(big.Int).Div(cl.bigQ, new(big.Int).SetUint64(q))
			cl.qiHat = append(cl.qiHat, hat)
			hatModQ := new(big.Int).Mod(hat, new(big.Int).SetUint64(q)).Uint64()
			cl.inv = append(cl.inv, InvMod(hatModQ, q))
		}
		ctx.crt[level] = cl
	}
}

// BigQ returns the full modulus at the given level.
func (ctx *Context) BigQ(level int) *big.Int { return ctx.crt[level].bigQ }

// reconstructCoeff writes the CRT reconstruction of residues res (one per
// active prime) into out, reduced into [0, Q).
func (cl *crtLevel) reconstructCoeff(res []uint64, moduli []*Modulus, out, scratch *big.Int) {
	out.SetUint64(0)
	for i, r := range res {
		v := MulMod(r, cl.inv[i], moduli[i].Q)
		scratch.SetUint64(v)
		scratch.Mul(scratch, cl.qiHat[i])
		out.Add(out, scratch)
	}
	out.Mod(out, cl.bigQ)
}

// ToCenteredMod reconstructs each coefficient of p (coefficient domain),
// centers it in (-Q/2, Q/2], and reduces modulo m. This is the final step
// of BGV decryption.
func (ctx *Context) ToCenteredMod(p *Poly, m uint64) []uint64 {
	if p.IsNTT {
		panic("ring: ToCenteredMod requires coefficient-domain input")
	}
	cl := ctx.crt[p.Level()]
	out := make([]uint64, ctx.N)
	acc := new(big.Int)
	scratch := new(big.Int)
	mBig := new(big.Int).SetUint64(m)
	res := make([]uint64, p.Level()+1)
	for j := 0; j < ctx.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		cl.reconstructCoeff(res, ctx.Moduli, acc, scratch)
		if acc.Cmp(cl.halfQ) > 0 {
			acc.Sub(acc, cl.bigQ)
		}
		acc.Mod(acc, mBig) // big.Int Mod is Euclidean: result in [0, m)
		out[j] = acc.Uint64()
	}
	return out
}

// MaxCenteredBits returns the bit length of the largest centered
// coefficient of p. It is used to measure ciphertext noise.
func (ctx *Context) MaxCenteredBits(p *Poly) int {
	if p.IsNTT {
		panic("ring: MaxCenteredBits requires coefficient-domain input")
	}
	cl := ctx.crt[p.Level()]
	acc := new(big.Int)
	scratch := new(big.Int)
	res := make([]uint64, p.Level()+1)
	maxBits := 0
	for j := 0; j < ctx.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		cl.reconstructCoeff(res, ctx.Moduli, acc, scratch)
		if acc.Cmp(cl.halfQ) > 0 {
			acc.Sub(acc, cl.bigQ)
			acc.Neg(acc)
		}
		if bl := acc.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	return maxBits
}

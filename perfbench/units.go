package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/ring"
)

// unitReps is how many times each unit cost is timed; the median is
// reported.
const unitReps = 7

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs)), nil
}

// bgvUnits holds per-op costs at the top of the live backend's chain.
type bgvUnits struct {
	MulRelin, Relin, Rotate, RotateHoisted, MulPlain, Encrypt, Decrypt time.Duration
}

// hoistSteps are power-of-two rotations: their Galois keys always sit at
// the chain top, so every step is a true hoisted key switch there.
var hoistSteps = []int{1, 2, 4, 8}

// measureBGV times each BGV op the classification passes use on fresh
// top-level ciphertexts of b. It bumps b's op counters, so callers read
// the load's counts first.
func measureBGV(b *hebgv.Backend, seed uint64) (bgvUnits, error) {
	rng := rand.New(rand.NewPCG(seed, 0xb67))
	vals := func() []uint64 {
		v := make([]uint64, b.Slots())
		for i := range v {
			v[i] = rng.Uint64N(2)
		}
		return v
	}
	x, err := b.Encrypt(vals())
	if err != nil {
		return bgvUnits{}, err
	}
	y, err := b.Encrypt(vals())
	if err != nil {
		return bgvUnits{}, err
	}
	p, err := b.EncodePlain(vals())
	if err != nil {
		return bgvUnits{}, err
	}
	lazy, err := b.MulLazy(x, y)
	if err != nil {
		return bgvUnits{}, err
	}
	var u bgvUnits
	steps := []struct {
		dst *time.Duration
		fn  func() error
	}{
		{&u.MulRelin, func() error { _, err := b.Mul(x, y); return err }},
		{&u.Relin, func() error { _, err := b.Relinearize(lazy); return err }},
		{&u.Rotate, func() error { _, err := b.Rotate(x, 1); return err }},
		{&u.RotateHoisted, func() error { _, err := b.RotateHoisted(x, hoistSteps); return err }},
		{&u.MulPlain, func() error { _, err := b.MulPlain(x, p); return err }},
		{&u.Encrypt, func() error { _, err := b.Encrypt(vals()); return err }},
		{&u.Decrypt, func() error { _, err := b.Decrypt(x); return err }},
	}
	for _, s := range steps {
		d, err := timeMedian(unitReps, s.fn)
		if err != nil {
			return bgvUnits{}, fmt.Errorf("timing bgv op: %w", err)
		}
		*s.dst = d
	}
	u.RotateHoisted /= time.Duration(len(hoistSteps))
	return u, nil
}

// bill prices one pass's op counts at the unit costs: each product as
// its tensor step (mul+relin minus relin) plus each explicit
// relinearization, rotations split into hoisted and single, plaintext
// products and encryptions. Additions are left out as cheap. Plain
// Mul relinearizes internally without counting a Relin, so the bill
// under-prices stages built on plain products.
func (u bgvUnits) bill(c he.OpCounts) time.Duration {
	tensor := max(u.MulRelin-u.Relin, 0)
	return time.Duration(c.Mul)*tensor +
		time.Duration(c.Relin)*u.Relin +
		time.Duration(c.Rotate-c.RotateHoisted)*u.Rotate +
		time.Duration(c.RotateHoisted)*u.RotateHoisted +
		time.Duration(c.ConstMul)*u.MulPlain +
		time.Duration(c.Encrypt)*u.Encrypt
}

// ringUnits holds ring-kernel costs at the top limb count.
type ringUnits struct {
	NTT, INTT, MulCoeffs time.Duration
}

// measureRing times the forward and inverse NTT and the pointwise
// product on ctx at its full limb count.
func measureRing(ctx *ring.Context, seed uint64) ringUnits {
	rng := rand.New(rand.NewPCG(seed, 0x1e6))
	level := ctx.MaxLevel()
	poly := func() *ring.Poly {
		p := ctx.NewPoly(level)
		for i, row := range p.Coeffs {
			q := ctx.Moduli[i].Q
			for j := range row {
				row[j] = rng.Uint64N(q)
			}
		}
		return p
	}
	a, b, out := poly(), poly(), ctx.NewPoly(level)
	var u ringUnits
	// The transforms run on uniform residues, so each repetition may
	// relabel the domain and transform the previous output again. The
	// ring kernels cannot fail; the closures return nil.
	u.NTT, _ = timeMedian(unitReps, func() error { a.IsNTT = false; ctx.NTT(a); return nil })
	u.INTT, _ = timeMedian(unitReps, func() error { a.IsNTT = true; ctx.INTT(a); return nil })
	a.IsNTT, b.IsNTT = true, true
	u.MulCoeffs, _ = timeMedian(unitReps, func() error { ctx.MulCoeffs(a, b, out); return nil })
	return u
}

package bgv

import (
	"fmt"
	"math"

	"copse/internal/ring"
)

// Evaluator performs homomorphic operations. It holds only read-only key
// material, so a single Evaluator is safe for concurrent use across
// goroutines as long as distinct ciphertexts are operated on.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeys
}

// NewEvaluator returns an evaluator using the given evaluation keys. The
// keys may be nil for purely additive workloads.
func NewEvaluator(params *Parameters, keys *EvaluationKeys) *Evaluator {
	return &Evaluator{params: params, keys: keys}
}

// msFloorBits is the noise level right after a modulus switch.
func (ev *Evaluator) msFloorBits() float64 { return ModSwitchFloorBits(ev.params.Params) }

// ksNoiseBits is the additive noise of one key switch at a level.
func (ev *Evaluator) ksNoiseBits(level int) float64 {
	return KeySwitchNoiseBits(ev.params.Params, level)
}

// manage drops levels while the noise estimate gets too close to the
// current modulus, mirroring HElib's automatic modulus switching. The
// policy is lazy: it only switches when the decryption margin is at risk,
// because key-switching operations (rotations, relinearization) need a
// modulus comfortably above the key-switch noise and so benefit from
// staying at higher levels.
func (ev *Evaluator) manage(ct *Ciphertext) error {
	margin := float64(bitsOf(ev.params.T)) + 10
	for ct.Level() > 0 && ct.NoiseBits > float64(ev.params.QBits(ct.Level()))-margin {
		if err := ev.ModSwitch(ct); err != nil {
			return err
		}
	}
	if ct.NoiseBits > float64(ev.params.QBits(ct.Level()))-float64(bitsOf(ev.params.T))-2 {
		return fmt.Errorf("bgv: noise estimate %.0f bits exceeds modulus at level %d: %w",
			ct.NoiseBits, ct.Level(), errNotEnoughLevels)
	}
	return nil
}

// alignLevels switches the higher-level operand down so both share a
// level, returning (possibly shallow-copied) aligned ciphertexts.
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext, error) {
	for a.Level() > b.Level() {
		a = a.Copy()
		for a.Level() > b.Level() {
			if err := ev.ModSwitch(a); err != nil {
				return nil, nil, err
			}
		}
	}
	for b.Level() > a.Level() {
		b = b.Copy()
		for b.Level() > a.Level() {
			if err := ev.ModSwitch(b); err != nil {
				return nil, nil, err
			}
		}
	}
	return a, b, nil
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	a, b, err := ev.alignLevels(a, b)
	if err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	level := a.Level()
	out := &Ciphertext{NoiseBits: math.Max(a.NoiseBits, b.NoiseBits) + 1}
	for i := 0; i < max(len(a.C), len(b.C)); i++ {
		var c *ring.Poly
		switch {
		case i < len(a.C) && i < len(b.C):
			c = ctx.NewPoly(level)
			ctx.Add(a.C[i], b.C[i], c)
		case i < len(a.C):
			c = a.C[i].Copy()
		default:
			c = b.C[i].Copy()
		}
		out.C = append(out.C, c)
	}
	return out, ev.manage(out)
}

// Sub returns a - b, subtracting coefficient-wise in one pass.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	a, b, err := ev.alignLevels(a, b)
	if err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	level := a.Level()
	out := &Ciphertext{NoiseBits: math.Max(a.NoiseBits, b.NoiseBits) + 1}
	for i := 0; i < max(len(a.C), len(b.C)); i++ {
		var c *ring.Poly
		switch {
		case i < len(a.C) && i < len(b.C):
			c = ctx.NewPoly(level)
			ctx.Sub(a.C[i], b.C[i], c)
		case i < len(a.C):
			c = a.C[i].Copy()
		default:
			c = ctx.NewPoly(level)
			ctx.Neg(b.C[i], c)
		}
		out.C = append(out.C, c)
	}
	return out, ev.manage(out)
}

// Neg returns -a. The output polys come from the ring pool (fully
// overwritten), keeping the serving hot path allocation-free.
func (ev *Evaluator) Neg(a *Ciphertext) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	out := &Ciphertext{NoiseBits: a.NoiseBits}
	for _, c := range a.C {
		n := ctx.GetPoly(a.Level())
		ctx.Neg(c, n)
		out.C = append(out.C, n)
	}
	return out, nil
}

// AddPlain returns a + pt. The copy of a runs through the ring pool
// (GetPoly + CopyInto) instead of a fresh Poly.Copy.
func (ev *Evaluator) AddPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	out := &Ciphertext{NoiseBits: a.NoiseBits + 1}
	for _, c := range a.C {
		p := ctx.GetPoly(a.Level())
		ctx.CopyInto(c, p)
		out.C = append(out.C, p)
	}
	ctx.Add(out.C[0], pt.lift(ctx, a.Level()), out.C[0])
	return out, ev.manage(out)
}

// MulPlain returns a · pt (slot-wise).
func (ev *Evaluator) MulPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	p := pt.lift(ctx, a.Level())
	out := &Ciphertext{
		NoiseBits: a.NoiseBits + float64(bitsOf(ev.params.T)) + float64(ev.params.LogN)/2 + 1,
	}
	for _, c := range a.C {
		m := ctx.NewPoly(a.Level())
		ctx.MulCoeffs(c, p, m)
		out.C = append(out.C, m)
	}
	return out, ev.manage(out)
}

// MulScalar returns a · c for a scalar c < T (the same value in every
// slot). Scalars embed as constant polynomials, so no encoding is
// needed. Output polys come from the ring pool (fully overwritten).
func (ev *Evaluator) MulScalar(a *Ciphertext, c uint64) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	out := &Ciphertext{NoiseBits: a.NoiseBits + float64(bitsOf(c)) + 1}
	for _, p := range a.C {
		m := ctx.GetPoly(a.Level())
		ctx.MulScalar(p, c, m)
		out.C = append(out.C, m)
	}
	return out, ev.manage(out)
}

// tensorProduct computes the degree-2 tensor (d0, d1, d2) of a·b after
// the BGV switch-down discipline (drop levels first so the tensor noise,
// the product of the operand noises, stays small).
func (ev *Evaluator) tensorProduct(a, b *Ciphertext) (*Ciphertext, error) {
	if len(a.C) != 2 || len(b.C) != 2 {
		return nil, fmt.Errorf("bgv: Mul requires degree-1 ciphertexts")
	}
	a, b, err := ev.alignLevels(a, b)
	if err != nil {
		return nil, err
	}
	floor := ev.msFloorBits()
	for a.Level() > 0 && a.NoiseBits >= floor+float64(ev.params.PrimeBits) {
		a = a.Copy()
		if err := ev.ModSwitch(a); err != nil {
			return nil, err
		}
	}
	for b.Level() > a.Level() {
		b = b.Copy()
		if err := ev.ModSwitch(b); err != nil {
			return nil, err
		}
	}
	ctx := ev.params.RingCtx
	level := a.Level()
	if level == 0 {
		return nil, errNotEnoughLevels
	}

	d0 := ctx.NewPoly(level)
	ctx.MulCoeffs(a.C[0], b.C[0], d0)
	d1 := ctx.NewPoly(level)
	tmp := ctx.GetPoly(level)
	ctx.MulCoeffs(a.C[0], b.C[1], d1)
	ctx.MulCoeffs(a.C[1], b.C[0], tmp)
	ctx.Add(d1, tmp, d1)
	d2 := ctx.NewPoly(level)
	ctx.MulCoeffs(a.C[1], b.C[1], d2)
	ctx.PutPoly(tmp)

	return &Ciphertext{
		C:         []*ring.Poly{d0, d1, d2},
		NoiseBits: a.NoiseBits + b.NoiseBits + float64(ev.params.LogN) + 1,
	}, nil
}

// Mul returns a·b, relinearized and modulus-switched: it consumes one
// level.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	out, err := ev.MulNoRelin(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(out)
}

// MulNoRelin returns the degree-2 product a·b without relinearizing.
// Degree-2 ciphertexts support Add/Sub/Neg, so a sum of products can be
// accumulated first and key-switched once with Relinearize — amortizing
// the dominant key-switching cost across the whole inner product (lazy
// relinearization).
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) (*Ciphertext, error) {
	out, err := ev.tensorProduct(a, b)
	if err != nil {
		return nil, err
	}
	return out, ev.manage(out)
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 and
// modulus-switches. Degree-1 inputs pass through unchanged.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if len(ct.C) == 2 {
		return ct, nil
	}
	if len(ct.C) != 3 {
		return nil, fmt.Errorf("bgv: Relinearize requires a ciphertext of degree at most 2")
	}
	if ev.keys == nil || ev.keys.Relin == nil {
		return nil, fmt.Errorf("bgv: Mul requires a relinearization key")
	}
	ctx := ev.params.RingCtx
	level := ct.Level()
	if level == 0 {
		return nil, errNotEnoughLevels // the switch below drops a prime
	}

	// Key-switch d2, then divide by P and by q_ℓ in one rescale: the
	// relinearized product is modulus-switched anyway.
	digits := ctx.ModUp(ct.C[2])
	acc0, acc1 := ev.keySwitchDot(digits, 1, ev.keys.Relin, level)
	ctx.PutPolys(digits)
	d0, d1 := ctx.NewPoly(level-1), ctx.NewPoly(level-1)
	ctx.ModDownSwitch(acc0, ct.C[0], d0)
	ctx.ModDownSwitch(acc1, ct.C[1], d1)
	ctx.PutPoly(acc0)
	ctx.PutPoly(acc1)

	out := &Ciphertext{C: []*ring.Poly{d0, d1}}
	out.NoiseBits = ev.switchedNoise(math.Max(ct.NoiseBits, ev.ksNoiseBits(level)) + 1)
	return out, ev.manage(out)
}

// keySwitchDot returns the extended accumulators ⟨σ_g(digits), key⟩
// (g = 1 for no automorphism) over the key's level view at Q_ℓ ∪ P, from
// the ring pool: the key switch before its division by P.
func (ev *Evaluator) keySwitchDot(digits []*ring.Poly, g uint64, key *SwitchingKey, level int) (acc0, acc1 *ring.Poly) {
	ctx := ev.params.RingCtx
	key = key.AtLevel(ctx, level)
	ext := level + ev.params.SpecialPrimes
	acc0, acc1 = ctx.GetPoly(ext), ctx.GetPoly(ext)
	ctx.KeySwitchDot(digits, g, key.B, key.A, key.BS, key.AS, acc0, acc1)
	return acc0, acc1
}

// switchedNoise is the noise estimate after one modulus switch.
func (ev *Evaluator) switchedNoise(bits float64) float64 {
	return math.Max(bits-float64(ev.params.PrimeBits), ev.msFloorBits())
}

// ModSwitch drops one prime from ct's modulus chain in place, reducing
// the noise by roughly PrimeBits.
func (ev *Evaluator) ModSwitch(ct *Ciphertext) error {
	if ct.Level() == 0 {
		return errNotEnoughLevels
	}
	ctx := ev.params.RingCtx
	for _, c := range ct.C {
		ctx.ModSwitchDown(c)
	}
	ct.NoiseBits = ev.switchedNoise(ct.NoiseBits)
	return nil
}

// DropToLevel switches ct down to the given level in place.
func (ev *Evaluator) DropToLevel(ct *Ciphertext, level int) error {
	for ct.Level() > level {
		if err := ev.ModSwitch(ct); err != nil {
			return err
		}
	}
	return nil
}

// Rotate returns ct with slots rotated left by step: out[i] = in[i+step].
// If no Galois key exists for the exact step, the rotation is composed
// from available power-of-two steps.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int) (*Ciphertext, error) {
	if ev.keys == nil {
		return nil, fmt.Errorf("bgv: Rotate requires Galois keys")
	}
	slots := ev.params.Slots()
	s := ((step % slots) + slots) % slots
	if s == 0 {
		return ct.Copy(), nil
	}
	// A direct key is only usable if it covers the ciphertext's level:
	// keys for back-half rotation steps are generated at their scheduled
	// stage level (GenEvaluationKeysAt), and a rotation arriving above
	// that — a second registered model with a different schedule, or a
	// reactive caller — falls back to the composed path, whose
	// power-of-two ladder keys always live at the chain top.
	if elt := ev.params.GaloisElt(s); ev.keys.Galois[elt] != nil && ev.keys.Galois[elt].Level() >= ct.Level() {
		return ev.applyGalois(ct, elt)
	}
	// Compose from power-of-two hops.
	out := ct
	for bit := 0; s != 0; bit++ {
		if s&1 == 1 {
			hop := 1 << bit
			elt := ev.params.GaloisElt(hop)
			key := ev.keys.Galois[elt]
			if key == nil {
				return nil, fmt.Errorf("bgv: no Galois key for step %d (needed to compose rotation by %d)", hop, step)
			}
			var err error
			out, err = ev.applyGalois(out, elt)
			if err != nil {
				return nil, err
			}
		}
		s >>= 1
	}
	return out, nil
}

// applyGalois applies the automorphism x -> x^elt and key-switches back
// to the original secret.
func (ev *Evaluator) applyGalois(ct *Ciphertext, elt uint64) (*Ciphertext, error) {
	if err := ev.checkGalois(ct, elt); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	digits := ctx.ModUp(ct.C[1])
	out, err := ev.galoisFromDigits(ct, digits, elt)
	ctx.PutPolys(digits)
	return out, err
}

// checkGalois validates ct and the headroom for one key switch. A key
// switch adds ~ksNoiseBits of absolute noise; refuse to rotate when the
// current modulus cannot absorb it.
func (ev *Evaluator) checkGalois(ct *Ciphertext, elt uint64) error {
	key := ev.keys.Galois[elt]
	if key == nil {
		return fmt.Errorf("bgv: no Galois key for element %d", elt)
	}
	if key.Level() < ct.Level() {
		return fmt.Errorf("bgv: Galois key for element %d generated at level %d cannot serve a rotation at level %d",
			elt, key.Level(), ct.Level())
	}
	if len(ct.C) != 2 {
		return fmt.Errorf("bgv: rotation requires a degree-1 ciphertext")
	}
	level := ct.Level()
	if float64(ev.params.QBits(level)) < ev.ksNoiseBits(level)+float64(bitsOf(ev.params.T))+4 {
		return fmt.Errorf("bgv: rotation at level %d lacks key-switch headroom: %w", level, errNotEnoughLevels)
	}
	return nil
}

// galoisFromDigits finishes a rotation from the hoisted state — the
// ModUp digits of c1, shared by every rotation of ct. Both the digits
// and c0 stay in the NTT domain, where σ_elt is a permutation of the
// evaluation points, so a rotation costs the inner product plus ModDown
// and no digit transforms. Applying σ after the digit split is sound
// because σ permutes and sign-flips coefficients, turning a small lift
// of [c1]_{Q_j} into a small lift of [σ(c1)]_{Q_j}.
func (ev *Evaluator) galoisFromDigits(ct *Ciphertext, digits []*ring.Poly, elt uint64) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	level := ct.Level()
	sc0 := ctx.NewPoly(level)
	ctx.AutomorphismNTT(ct.C[0], elt, sc0)
	acc0, acc1 := ev.keySwitchDot(digits, elt, ev.keys.Galois[elt], level)
	c1 := ctx.NewPoly(level)
	ctx.ModDown(acc0, sc0, sc0)
	ctx.ModDown(acc1, nil, c1)
	ctx.PutPoly(acc0)
	ctx.PutPoly(acc1)
	out := &Ciphertext{
		C:         []*ring.Poly{sc0, c1},
		NoiseBits: math.Max(ct.NoiseBits, ev.ksNoiseBits(level)) + 1,
	}
	return out, ev.manage(out)
}

// HoistableStepAt classifies a rotation step at a level for op
// accounting: it returns (false, false) for a no-op step (0 mod slots),
// (true, true) when a direct Galois key exists covering the level so
// the step rides the hoisted path, and (true, false) when the step must
// be composed from power-of-two hops instead.
func (ev *Evaluator) HoistableStepAt(step, level int) (rotates, hoisted bool) {
	slots := ev.params.Slots()
	s := ((step % slots) + slots) % slots
	if s == 0 {
		return false, false
	}
	if ev.keys == nil {
		return true, false
	}
	key := ev.keys.Galois[ev.params.GaloisElt(s)]
	return true, key != nil && key.Level() >= level
}

// RotateHoisted rotates ct left by every step in steps with hoisted key
// switching (Halevi–Shoup 2018): ModUp extends the c1 digits once, and
// each Galois automorphism is applied to the shared NTT-domain digits
// as a permutation — amortizing the INTTs, basis conversions and digit
// NTTs across all requested rotations. The result slice is parallel to
// steps; step 0 returns a copy. Steps lacking a direct Galois key fall
// back to the composed Rotate path (no hoisting for those steps).
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	if ev.keys == nil {
		return nil, fmt.Errorf("bgv: RotateHoisted requires Galois keys")
	}
	if len(steps) == 0 {
		return nil, nil
	}
	if len(ct.C) != 2 {
		return nil, fmt.Errorf("bgv: rotation requires a degree-1 ciphertext")
	}
	ctx := ev.params.RingCtx
	slots := ev.params.Slots()
	level := ct.Level()

	outs := make([]*Ciphertext, len(steps))
	var digits []*ring.Poly
	var err error
	for i, step := range steps {
		s := ((step % slots) + slots) % slots
		if s == 0 {
			outs[i] = ct.Copy()
			continue
		}
		elt := ev.params.GaloisElt(s)
		if key := ev.keys.Galois[elt]; key == nil || key.Level() < level {
			outs[i], err = ev.Rotate(ct, s)
		} else if err = ev.checkGalois(ct, elt); err == nil {
			if digits == nil {
				digits = ctx.ModUp(ct.C[1])
			}
			outs[i], err = ev.galoisFromDigits(ct, digits, elt)
		}
		if err != nil {
			break
		}
	}
	ctx.PutPolys(digits)
	if err != nil {
		return nil, err
	}
	return outs, nil
}

package ring

import (
	"fmt"
	"testing"
)

// tilingTestContext builds a context over fresh 55-bit primes.
func tilingTestContext(t *testing.T, logN, limbs int) *Context {
	t.Helper()
	n := 1 << logN
	primes, err := GeneratePrimes(55, uint64(2*n)*65537, limbs)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	ctx, err := NewContext(logN, primes, 65537)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

// TestRunTiledCoversAllIndices: every index in [0, m) is visited exactly
// once for any (m, grain, workers) combination, including grains larger
// than m and degenerate pools.
func TestRunTiledCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 5} {
		var ws *Workers
		if workers >= 2 {
			ws = NewWorkers(workers)
		}
		for _, m := range []int{1, 2, 3, 7, 12, 64} {
			for _, grain := range []int{-1, 0, 1, 2, 5, 64, 100} {
				hits := make([]int32, m)
				ws.RunTiled(m, grain, func(i int) {
					hits[i]++ // goroutine-racy only if sharding overlaps; asserted below
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d m=%d grain=%d: index %d visited %d times", workers, m, grain, i, h)
					}
				}
			}
		}
		ws.Close()
	}
}

// TestSpanTiledOpsDeterministic: every tiled ring op is bit-identical
// between the serial path and the span-tiled worker pool, across tile
// sizes (including grains that split a single limb into many tiles) and
// worker counts. Run under -race this also checks the tile fan-out for
// data races.
func TestSpanTiledOpsDeterministic(t *testing.T) {
	const logN, limbs = 8, 6
	level := limbs - 1
	serialCtx := tilingTestContext(t, logN, limbs)
	s := NewSeededSampler(serialCtx, 99)
	a0 := s.UniformPoly(level, true)
	b0 := s.UniformPoly(level, true)
	c0 := s.UniformPoly(level, false) // coefficient domain, for the NTT case

	type opCase struct {
		name string
		run  func(ctx *Context, a, b *Poly, out *Poly)
	}
	ops := []opCase{
		{"NTT", func(ctx *Context, a, b, out *Poly) { ctx.CopyInto(c0, out); ctx.NTT(out) }},
		{"INTT", func(ctx *Context, a, b, out *Poly) { ctx.CopyInto(a, out); ctx.INTT(out) }},
		{"Add", func(ctx *Context, a, b, out *Poly) { ctx.Add(a, b, out) }},
		{"Sub", func(ctx *Context, a, b, out *Poly) { ctx.Sub(a, b, out) }},
		{"Neg", func(ctx *Context, a, b, out *Poly) { ctx.Neg(a, out) }},
		{"MulCoeffs", func(ctx *Context, a, b, out *Poly) { ctx.MulCoeffs(a, b, out) }},
		{"MulCoeffsAdd", func(ctx *Context, a, b, out *Poly) { ctx.CopyInto(a, out); ctx.MulCoeffsAdd(a, b, out) }},
		{"MulScalar", func(ctx *Context, a, b, out *Poly) { ctx.MulScalar(a, 12345, out) }},
	}

	want := make(map[string]*Poly)
	for _, op := range ops {
		out := serialCtx.NewPoly(level)
		op.run(serialCtx, a0, b0, out)
		want[op.name] = out
	}

	// 64 bytes/tile splits each 256-coeff limb row into 32 tiles; the
	// larger grains cover one-tile-per-limb and everything-in-one-tile.
	for _, tileBytes := range []int{64, 2048, 1 << 20} {
		for _, workers := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("tile=%d/workers=%d", tileBytes, workers), func(t *testing.T) {
				ctx := tilingTestContext(t, logN, limbs)
				ctx.SetWorkers(NewWorkers(workers))
				ctx.SetTileBytes(tileBytes)
				ctx.SetPointwiseParCutoff(1) // force the pool onto every op
				defer ctx.CloseWorkers()
				a := ctx.NewPoly(level)
				b := ctx.NewPoly(level)
				ctx.CopyInto(a0, a)
				ctx.CopyInto(b0, b)
				for _, op := range ops {
					out := ctx.NewPoly(level)
					op.run(ctx, a, b, out)
					for i := range out.Coeffs {
						for j := range out.Coeffs[i] {
							if out.Coeffs[i][j] != want[op.name].Coeffs[i][j] {
								t.Fatalf("%s diverges from serial at limb %d coeff %d", op.name, i, j)
							}
						}
					}
				}
			})
		}
	}
}

// TestStageLimbHintBitIdentical: ops run identically whether the
// advisory stage limb hint matches the operand, mismatches it, or is
// absent — the hint may only change dispatch, never results.
func TestStageLimbHintBitIdentical(t *testing.T) {
	const logN, limbs = 8, 6
	level := limbs - 1
	base := tilingTestContext(t, logN, limbs)
	s := NewSeededSampler(base, 7)
	a0 := s.UniformPoly(level, true)
	b0 := s.UniformPoly(level, true)
	c0 := s.UniformPoly(level, false)
	ref := base.NewPoly(level)
	base.MulCoeffs(a0, b0, ref)
	refT := base.NewPoly(level)
	base.CopyInto(c0, refT)
	base.NTT(refT)

	for _, hint := range []int{0, limbs, limbs + 3, 1} {
		ctx := tilingTestContext(t, logN, limbs)
		ctx.SetWorkers(NewWorkers(3))
		ctx.SetPointwiseParCutoff(1)
		defer ctx.CloseWorkers()
		ctx.SetStageLimbHint(hint)
		if hint > 0 && ctx.StageLimbHint() != hint {
			t.Fatalf("hint %d not installed", hint)
		}
		a := ctx.NewPoly(level)
		b := ctx.NewPoly(level)
		ctx.CopyInto(a0, a)
		ctx.CopyInto(b0, b)
		out := ctx.NewPoly(level)
		ctx.MulCoeffs(a, b, out)
		tr := ctx.NewPoly(level)
		ctx.CopyInto(c0, tr)
		ctx.NTT(tr)
		for i := range out.Coeffs {
			for j := range out.Coeffs[i] {
				if out.Coeffs[i][j] != ref.Coeffs[i][j] {
					t.Fatalf("hint=%d: MulCoeffs diverges at limb %d coeff %d", hint, i, j)
				}
				if tr.Coeffs[i][j] != refT.Coeffs[i][j] {
					t.Fatalf("hint=%d: NTT diverges at limb %d coeff %d", hint, i, j)
				}
			}
		}
		ctx.SetStageLimbHint(0)
		if ctx.StageLimbHint() != 0 {
			t.Fatal("hint not cleared")
		}
	}
}

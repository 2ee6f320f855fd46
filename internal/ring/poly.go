package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Poly is a polynomial in Z_Q[x]/(x^N+1) stored in RNS form: Coeffs[i][j]
// is coefficient j reduced modulo the i-th prime of the chain. A Poly
// "lives" at a level: level ℓ means primes 0..ℓ are active, so
// len(Coeffs) == ℓ+1. IsNTT records whether the coefficients are in
// evaluation (NTT) domain.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// Level returns the level of p (number of active primes minus one).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// N returns the ring degree.
func (p *Poly) N() int { return len(p.Coeffs[0]) }

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		out.Coeffs[i] = make([]uint64, len(p.Coeffs[i]))
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	return out
}

// DropLevel removes the top prime's residues, lowering the level by one.
// It does not rescale; callers wanting BGV modulus switching should use
// the scheme-level operation.
func (p *Poly) DropLevel() {
	p.Coeffs = p.Coeffs[:len(p.Coeffs)-1]
}

// Context bundles a ring degree, a chain of NTT-friendly primes and the
// plaintext modulus, along with the precomputation needed for CRT
// reconstruction at every level.
type Context struct {
	N      int
	LogN   int
	Moduli []*Modulus // prime chain q_0 .. q_L
	T      uint64     // plaintext modulus

	// P is the special-modulus context of hybrid key switching (nil
	// without one; see NewContextQP and basis.go). Moduli and MaxLevel
	// always describe the ciphertext chain Q alone.
	P *Context

	crt  []*crtLevel   // per-level CRT reconstruction tables
	ms   []*rescaleTab // per-level one-prime modulus-switch tables
	down *rescaleTab   // division by P (NewContextQP only)
	// downSwitch[l] divides by q_l·P (NewContextQP only); pModQ[i] is
	// [P]_{q_i} with its Shoup companion.
	downSwitch    []*rescaleTab
	pModQ, pModQS []uint64
	groups        [][]*convGroup // digit-group basis conversions (NewContextQP only)
	perms         sync.Map       // Galois element → NTT-domain permutation
	pool          polyPools      // level-keyed polynomial recycling (pool.go)
	rows          rowPool        // single-prime scratch rows

	// workers is the optional intra-op pool fanning per-limb work across
	// cores (workers.go). Atomic so attachment races with concurrent op
	// traffic are safe; nil means every op runs its serial loop.
	workers atomic.Pointer[Workers]

	// pointwiseCutoff is the tunable parallelism threshold for pointwise
	// ops (see SetPointwiseParCutoff); atomic for the same reason as
	// workers. Zero is never stored (NewContext seeds the default).
	pointwiseCutoff atomic.Int64

	// vecRows routes eligible pointwise rows to the vector backend
	// (vector.go); captured from the package default at construction,
	// retunable via SetVectorKernels. The transform kernels carry their
	// own per-Modulus selection.
	vecRows atomic.Bool

	// tileBytes is the cache-tiling target for the limb scheduler: Run
	// fan-outs hand each worker round-robin tiles of
	// ceil(tileBytes / rowBytes) limbs instead of one contiguous span,
	// so the limb→worker assignment is stable across consecutive ops of
	// a pass even as levels drop (workers.go). Zero is never stored.
	tileBytes atomic.Int64

	// limbHint is the advisory fixed-limb-count plan installed by
	// SetStageLimbHint (generated kernels hint their stage's exact limb
	// count); ops whose limb count matches skip the per-op dispatch
	// decision. Never load-bearing: a mismatched hint falls back to the
	// generic decision, so correctness cannot depend on it.
	limbHint atomic.Pointer[limbPlan]
}

// limbPlan is a precomputed dispatch decision for one exact limb count:
// the worker pool to fan to for transform-sized and pointwise ops (nil =
// serial) and the tile grain. See SetStageLimbHint.
type limbPlan struct {
	m           int
	transformWS *Workers
	pointwiseWS *Workers
	grain       int
}

// NewContext creates a ring context for degree n = 2^logN with the given
// prime chain and plaintext modulus. Every prime must be ≡ 1 mod 2n (for
// the NTT) and ≡ 1 mod t (so BGV modulus switching does not scale the
// plaintext).
func NewContext(logN int, primes []uint64, t uint64) (*Context, error) {
	if logN < 4 || logN > 16 {
		return nil, fmt.Errorf("ring: logN %d out of range [4,16]", logN)
	}
	n := 1 << logN
	ctx := &Context{N: n, LogN: logN, T: t}
	for _, q := range primes {
		if q%t != 1 {
			return nil, fmt.Errorf("ring: prime %d is not congruent to 1 mod t=%d", q, t)
		}
		m, err := NewModulus(q, n)
		if err != nil {
			return nil, err
		}
		ctx.Moduli = append(ctx.Moduli, m)
	}
	if len(ctx.Moduli) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	ctx.pointwiseCutoff.Store(DefaultPointwiseParCutoff)
	ctx.tileBytes.Store(DefaultTileBytes)
	ctx.vecRows.Store(vectorDefault.Load())
	ctx.buildCRT()
	ctx.buildRescale()
	return ctx, nil
}

// SetVectorKernels selects the scalar or vector backend for this
// context's pointwise rows and for every Modulus of its chain
// (transforms). Enabling is a no-op on hosts without vector support.
// Results are bit-identical either way; this is the per-context ablation
// knob behind copse.WithVectorKernels / copse-bench -novec. Safe to call
// concurrently with op traffic.
func (ctx *Context) SetVectorKernels(on bool) {
	on = on && vectorAvailable()
	ctx.vecRows.Store(on)
	for _, m := range ctx.Moduli {
		m.SetVectorKernels(on)
	}
	if ctx.P != nil {
		ctx.P.SetVectorKernels(on)
	}
}

// VectorKernels reports whether this context routes eligible rows to the
// vector backend.
func (ctx *Context) VectorKernels() bool { return ctx.vecRows.Load() }

// SetWorkers attaches an intra-op worker pool: NTTs, key-switch inner
// products, modulus switches and (above a size cutoff) pointwise ops run
// their per-limb loops on the pool instead of serially. nil detaches.
// Results are bit-identical either way (each limb writes only its own
// row). Safe to call concurrently with op traffic.
func (ctx *Context) SetWorkers(ws *Workers) { ctx.workers.Store(ws) }

// WorkerCount reports the attached pool's concurrency (1 = serial).
func (ctx *Context) WorkerCount() int { return ctx.workers.Load().Size() }

// CloseWorkers detaches and closes the attached pool, releasing its
// resident goroutines; it blocks until in-flight fan-outs drain (ops
// racing the close fall back to their serial loops). A no-op when no
// pool is attached.
func (ctx *Context) CloseWorkers() {
	if ws := ctx.workers.Swap(nil); ws != nil {
		ws.Close()
	}
}

// DefaultPointwiseParCutoff is the default total element count
// (limbs × N) below which pointwise ops stay on the serial path: the
// small back-half ops of a level-scheduled pipeline (2 limbs at N=2048)
// finish faster than a dispatch round-trip. Tune per host with
// SetPointwiseParCutoff.
const DefaultPointwiseParCutoff = 1 << 14

// SetPointwiseParCutoff tunes the pointwise-parallelism threshold: ops
// touching fewer than n total elements (limbs × N) run their serial
// loop even with a worker pool attached. 1 (or any n ≤ N) parallelizes
// every multi-limb pointwise op; a huge n pins them all serial (the
// transform-sized ops — NTT, modulus switch, decompose — always
// parallelize and are not governed by this knob). Results are
// bit-identical at any cutoff; this trades dispatch overhead against
// fan-out, so the right value is a per-host measurement. Safe to call
// concurrently with op traffic; n ≤ 0 restores the default.
func (ctx *Context) SetPointwiseParCutoff(n int) {
	if n <= 0 {
		n = DefaultPointwiseParCutoff
	}
	ctx.pointwiseCutoff.Store(int64(n))
}

// PointwiseParCutoff reports the active pointwise-parallelism threshold.
func (ctx *Context) PointwiseParCutoff() int { return int(ctx.pointwiseCutoff.Load()) }

// DefaultTileBytes is the default cache-tiling target: tiles are sized
// so one tile's rows (~8·N bytes each) fit a mid-size L2 slice, keeping
// a limb's working set resident on the worker that owns it across the
// fused passes of consecutive ops. At Security128 (N=32768, 256 KiB per
// row) this yields 4-limb tiles; tune per host with SetTileBytes.
const DefaultTileBytes = 1 << 20

// SetTileBytes tunes the cache-tiling target for limb fan-outs; n ≤ 0
// restores the default. Results are bit-identical at any tile size (the
// scheduler executes every index exactly once; only the limb→worker
// placement changes). Safe to call concurrently with op traffic.
func (ctx *Context) SetTileBytes(n int) {
	if n <= 0 {
		n = DefaultTileBytes
	}
	ctx.tileBytes.Store(int64(n))
}

// TileBytes reports the active cache-tiling target.
func (ctx *Context) TileBytes() int { return int(ctx.tileBytes.Load()) }

// tileGrain is the number of limbs per scheduler tile: enough rows to
// fill the tile-bytes target, at least one. Independent of the limb
// count of any particular op, which is what makes the round-robin
// tile→worker assignment stable across the ops of a pass (workers.go).
func (ctx *Context) tileGrain() int {
	g := int(ctx.tileBytes.Load()) / (8 * ctx.N)
	if g < 1 {
		g = 1
	}
	return g
}

// SetStageLimbHint installs an advisory dispatch plan for ops over
// exactly m limbs: the per-op pool/cutoff/grain decision is precomputed
// once, and ops whose limb count matches use it directly. Generated
// specialized kernels hint each pipeline stage's exact limb count
// (KernelCtx.StageLimbs); m ≤ 0 clears the hint. The hint is advisory —
// ops at any other limb count take the generic decision path — so a
// stale or concurrent hint can never change results, only dispatch cost.
func (ctx *Context) SetStageLimbHint(m int) {
	if m <= 0 {
		ctx.limbHint.Store(nil)
		return
	}
	plan := &limbPlan{m: m, grain: ctx.tileGrain()}
	if m > 1 {
		ws := ctx.workers.Load()
		plan.transformWS = ws
		if int64(m*ctx.N) >= ctx.pointwiseCutoff.Load() {
			plan.pointwiseWS = ws
		}
	}
	ctx.limbHint.Store(plan)
}

// StageLimbHint reports the installed hint's limb count (0 = none).
func (ctx *Context) StageLimbHint() int {
	if p := ctx.limbHint.Load(); p != nil {
		return p.m
	}
	return 0
}

// limbWorkers returns the pool to fan m limbs across (nil = serial) and
// the tile grain for the fan-out. Pointwise ops (a few ns per element)
// additionally require the total element count to clear the pointwise
// cutoff; the transform-sized ops (NTT, modulus switch, decompose)
// parallelize whenever more than one limb is active. A matching stage
// limb hint short-circuits the whole decision.
func (ctx *Context) limbWorkers(m int, pointwise bool) (*Workers, int) {
	if p := ctx.limbHint.Load(); p != nil && p.m == m {
		if pointwise {
			return p.pointwiseWS, p.grain
		}
		return p.transformWS, p.grain
	}
	if m <= 1 || (pointwise && int64(m*ctx.N) < ctx.pointwiseCutoff.Load()) {
		return nil, 1
	}
	return ctx.workers.Load(), ctx.tileGrain()
}

// MaxLevel returns the highest level supported by the chain.
func (ctx *Context) MaxLevel() int { return len(ctx.Moduli) - 1 }

// NewPoly allocates a zero polynomial at the given level.
func (ctx *Context) NewPoly(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, ctx.N)
	}
	return p
}

// NTT converts p to evaluation domain in place, transforming limbs
// concurrently when a worker pool is attached.
func (ctx *Context) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT of a poly already in NTT domain")
	}
	m := len(p.Coeffs)
	if ws, grain := ctx.limbWorkers(m, false); ws != nil {
		ws.RunTiled(m, grain, func(i int) { ctx.Moduli[i].NTT(p.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			ctx.Moduli[i].NTT(p.Coeffs[i])
		}
	}
	p.IsNTT = true
}

// INTT converts p to coefficient domain in place, transforming limbs
// concurrently when a worker pool is attached.
func (ctx *Context) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT of a poly already in coefficient domain")
	}
	m := len(p.Coeffs)
	if ws, grain := ctx.limbWorkers(m, false); ws != nil {
		ws.RunTiled(m, grain, func(i int) { ctx.Moduli[i].INTT(p.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			ctx.Moduli[i].INTT(p.Coeffs[i])
		}
	}
	p.IsNTT = false
}

// Per-limb pointwise kernels. Free functions over plain rows keep the
// serial paths closure-free (no allocation) and give the parallel paths
// one shared body. Each has a scalar body plus a dispatcher that routes
// eligible rows (rowVecOK) to the vector backend; the two paths are
// bit-identical (vector.go).

func addRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = AddMod(a[j], b[j], q)
	}
}

func addRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		addVecAsm(q, a, b, out)
		return
	}
	addRowScalar(q, a, b, out)
}

func subRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = SubMod(a[j], b[j], q)
	}
}

func subRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		subVecAsm(q, a, b, out)
		return
	}
	subRowScalar(q, a, b, out)
}

func negRowScalar(q uint64, a, out []uint64) {
	for j := range out {
		out[j] = NegMod(a[j], q)
	}
}

func negRow(vec bool, q uint64, a, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		negVecAsm(q, a, out)
		return
	}
	negRowScalar(q, a, out)
}

func mulRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = MulMod(a[j], b[j], q)
	}
}

func mulRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulVecAsm(q, a, b, out)
		return
	}
	mulRowScalar(q, a, b, out)
}

func mulAddRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = AddMod(out[j], MulMod(a[j], b[j], q), q)
	}
}

func mulAddRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulAddVecAsm(q, a, b, out)
		return
	}
	mulAddRowScalar(q, a, b, out)
}

func mulShoupAddRowScalar(q uint64, a, b, bs, out []uint64) {
	for j := range out {
		out[j] = AddMod(out[j], MulModShoup(a[j], b[j], bs[j], q), q)
	}
}

func mulShoupAddRow(vec bool, q uint64, a, b, bs, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulShoupAddVecAsm(q, a, b, bs, out)
		return
	}
	mulShoupAddRowScalar(q, a, b, bs, out)
}

func mulScalarRowScalar(q, c, cs uint64, a, out []uint64) {
	for j := range out {
		out[j] = MulModShoup(a[j], c, cs, q)
	}
}

func mulScalarRow(vec bool, q, c, cs uint64, a, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulScalarVecAsm(q, c, cs, a, out)
		return
	}
	mulScalarRowScalar(q, c, cs, a, out)
}

// Add sets out = a + b. All three must share a level and domain.
func (ctx *Context) Add(a, b, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { addRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			addRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (ctx *Context) Sub(a, b, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { subRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			subRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (ctx *Context) Neg(a, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { negRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			negRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffs sets out = a ⊙ b (pointwise). Both inputs must be in NTT
// domain, where the pointwise product realizes negacyclic convolution.
func (ctx *Context) MulCoeffs(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffs requires NTT-domain operands")
	}
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { mulRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			mulRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = true
}

// MulCoeffsAdd sets out += a ⊙ b (pointwise, NTT domain).
func (ctx *Context) MulCoeffsAdd(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffsAdd requires NTT-domain operands")
	}
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) { mulAddRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]) })
	} else {
		for i := 0; i < m; i++ {
			mulAddRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = true
}

// PolyShoup is the per-coefficient Shoup companion table of a fixed
// NTT-domain polynomial, enabling division-free pointwise products
// against it. Key-switching keys are the intended use: they are
// multiplied against every digit of every key switch, so the one-time
// precomputation pays for itself immediately.
type PolyShoup struct {
	S [][]uint64
}

// ShoupPoly precomputes the companion table of p (which must be fully
// reduced; NTT domain in practice).
func (ctx *Context) ShoupPoly(p *Poly) *PolyShoup {
	s := make([][]uint64, len(p.Coeffs))
	for i := range p.Coeffs {
		q := ctx.Moduli[i].Q
		row := make([]uint64, len(p.Coeffs[i]))
		for j, w := range p.Coeffs[i] {
			row[j] = ShoupPrecomp(w, q)
		}
		s[i] = row
	}
	return &PolyShoup{S: s}
}

// MulScalar sets out = a * c for a word-sized scalar c.
func (ctx *Context) MulScalar(a *Poly, c uint64, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	if ws, grain := ctx.limbWorkers(m, true); ws != nil {
		ws.RunTiled(m, grain, func(i int) {
			q := ctx.Moduli[i].Q
			cq := c % q
			mulScalarRow(vec, q, cq, ShoupPrecomp(cq, q), a.Coeffs[i], out.Coeffs[i])
		})
	} else {
		for i := 0; i < m; i++ {
			q := ctx.Moduli[i].Q
			cq := c % q
			mulScalarRow(vec, q, cq, ShoupPrecomp(cq, q), a.Coeffs[i], out.Coeffs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// Automorphism applies the Galois map x -> x^g (g odd) to a
// coefficient-domain polynomial: out_k = ±a_j where j*g ≡ k (mod 2N) and
// the sign accounts for x^N = -1.
func (ctx *Context) Automorphism(a *Poly, g uint64, out *Poly) {
	if a.IsNTT {
		panic("ring: Automorphism requires coefficient-domain input")
	}
	if a == out {
		panic("ring: Automorphism cannot run in place")
	}
	n := uint64(ctx.N)
	mask := 2*n - 1
	for i := range out.Coeffs {
		q := ctx.Moduli[i].Q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			k := (j * g) & mask
			if k < n {
				oi[k] = ai[j]
			} else {
				oi[k-n] = NegMod(ai[j], q)
			}
		}
	}
	out.IsNTT = false
}

// CopyInto copies src into dst, which must share src's level. Together
// with GetPoly this replaces Copy on hot paths.
func (ctx *Context) CopyInto(src, dst *Poly) {
	for i := range src.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = src.IsNTT
}

// SetLift fills p (coefficient domain) with the given small signed
// coefficients, reducing each into every active prime.
func (ctx *Context) SetLift(coeffs []int64, p *Poly) {
	for i := range p.Coeffs {
		q := ctx.Moduli[i].Q
		pi := p.Coeffs[i]
		for j, c := range coeffs {
			if c >= 0 {
				pi[j] = uint64(c) % q
			} else {
				pi[j] = q - (uint64(-c) % q)
				if pi[j] == q {
					pi[j] = 0
				}
			}
		}
	}
	p.IsNTT = false
}

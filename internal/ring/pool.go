package ring

import "sync"

// Polynomial memory pooling. The evaluator's hot path (key switching,
// rotations, modulus switching) allocates several level-sized polynomials
// per operation; recycling them through a level-keyed pool keeps the
// steady-state allocation rate near zero instead of thrashing the GC.
//
// Discipline: a poly obtained from GetPoly is owned by the
// caller until PutPoly. Polys that escape into long-lived structures
// (ciphertexts returned to the user) are simply never Put — the pool is
// an optimization, not a lifetime tracker.

// polyPools lazily builds one sync.Pool per level.
type polyPools struct {
	mu    sync.Mutex
	pools []*sync.Pool
}

func (pp *polyPools) forLevel(level int, n int) *sync.Pool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for len(pp.pools) <= level {
		lvl := len(pp.pools)
		pp.pools = append(pp.pools, &sync.Pool{New: func() any {
			p := &Poly{Coeffs: make([][]uint64, lvl+1)}
			for i := range p.Coeffs {
				p.Coeffs[i] = make([]uint64, n)
			}
			return p
		}})
	}
	return pp.pools[level]
}

// GetPoly returns a polynomial at the given level from the pool. Its
// coefficients are arbitrary (callers must overwrite every residue);
// IsNTT is reset to false.
func (ctx *Context) GetPoly(level int) *Poly {
	p := ctx.pool.forLevel(level, ctx.N).Get().(*Poly)
	p.IsNTT = false
	return p
}

// PutPoly returns p to the pool for its current level. p must not be used
// after the call. Polys whose rows were re-sliced away from length N
// (never produced by this package) must not be Put.
func (ctx *Context) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	ctx.pool.forLevel(p.Level(), ctx.N).Put(p)
}

// PutPolys returns every poly in ps to the pool.
func (ctx *Context) PutPolys(ps []*Poly) {
	for _, p := range ps {
		ctx.PutPoly(p)
	}
}

// rowPool recycles single-prime scratch rows ([]uint64 of length N) used
// by modulus switching.
type rowPool struct{ pool sync.Pool }

func (ctx *Context) getRow() []uint64 {
	if r := ctx.rows.pool.Get(); r != nil {
		return r.([]uint64)
	}
	return make([]uint64, ctx.N)
}

func (ctx *Context) putRow(r []uint64) { ctx.rows.pool.Put(r) }

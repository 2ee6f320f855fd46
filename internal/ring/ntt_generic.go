//go:build !amd64 || purego

package ring

// Portable fallback: no vector backend. The scalar fused kernels in
// ntt.go and the scalar rows in poly.go are the implementation. The
// stubs below are never reached (vectorAvailable is false, so no
// Modulus or row dispatch ever selects them); they exist to keep the
// call sites build-tag-free.

func vectorAvailable() bool { return false }

func (m *Modulus) nttVec(a []uint64)  { m.nttScalar(a) }
func (m *Modulus) inttVec(a []uint64) { m.inttScalar(a) }

func addVecAsm(q uint64, a, b, out []uint64)    { addRowScalar(q, a, b, out) }
func subVecAsm(q uint64, a, b, out []uint64)    { subRowScalar(q, a, b, out) }
func negVecAsm(q uint64, a, out []uint64)       { negRowScalar(q, a, out) }
func mulVecAsm(q uint64, a, b, out []uint64)    { mulRowScalar(q, a, b, out) }
func mulAddVecAsm(q uint64, a, b, out []uint64) { mulAddRowScalar(q, a, b, out) }
func mulShoupAddVecAsm(q uint64, a, b, bs, out []uint64) {
	mulShoupAddRowScalar(q, a, b, bs, out)
}
func mulScalarVecAsm(q, c, cs uint64, a, out []uint64) { mulScalarRowScalar(q, c, cs, a, out) }
func mulScalarAddVecAsm(q, c, cs uint64, a, out []uint64) {
	mulScalarAddRowScalar(q, c, cs, a, out)
}
func mulScalarShiftVecAsm(q, c, cs, e uint64, a, out []uint64) {
	mulScalarShiftRowScalar(q, c, cs, e, a, out)
}
func rescaleVecAsm(q, c, cs uint64, a, b, out []uint64) {
	rescaleRowScalar(q, c, cs, a, b, out)
}

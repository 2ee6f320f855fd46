//go:build !amd64 || purego

package ring

// Portable fallback: no vector backend. The scalar fused kernels in
// ntt.go and the scalar rows in poly.go are the implementation. The
// stubs below are never reached (bestTier is scalar, so no Modulus or
// row dispatch ever selects them); they exist to keep the call sites
// build-tag-free.

func bestTier() kernelTier { return tierScalar }

func (m *Modulus) nttVec(a []uint64, _ kernelTier)  { m.nttScalar(a) }
func (m *Modulus) inttVec(a []uint64, _ kernelTier) { m.inttScalar(a) }

func addVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { addRowScalar(q, a, b, out) }
func subVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { subRowScalar(q, a, b, out) }
func negVecAsm(_ kernelTier, q uint64, a, out []uint64)    { negRowScalar(q, a, out) }
func mulVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { mulRowScalar(q, a, b, out) }
func mulAddVecAsm(_ kernelTier, q uint64, a, b, out []uint64) {
	mulAddRowScalar(q, a, b, out)
}
func mulShoupAddVecAsm(_ kernelTier, q uint64, a, b, bs, out []uint64) {
	mulShoupAddRowScalar(q, a, b, bs, out)
}
func mulScalarVecAsm(_ kernelTier, q, c, cs uint64, a, out []uint64) {
	mulScalarRowScalar(q, c, cs, a, out)
}
func mulScalarAddVecAsm(_ kernelTier, q, c, cs uint64, a, out []uint64) {
	mulScalarAddRowScalar(q, c, cs, a, out)
}
func mulScalarShiftVecAsm(_ kernelTier, q, c, cs, e uint64, a, out []uint64) {
	mulScalarShiftRowScalar(q, c, cs, e, a, out)
}
func rescaleVecAsm(_ kernelTier, q, c, cs uint64, a, b, out []uint64) {
	rescaleRowScalar(q, c, cs, a, b, out)
}

package ring

// SetDefaultTierForTest pins the package default kernel tier to the one
// named ("scalar-fused", "avx2" or "avx512") for external tests that
// build whole systems on a chosen tier, and returns the function that
// restores the previous default. ok is false when the host lacks the
// tier (the default is then unchanged).
func SetDefaultTierForTest(name string) (restore func(), ok bool) {
	for t := tierScalar; t <= bestTier(); t++ {
		if t.String() == name {
			prev := kernelDefault.Swap(int32(t))
			return func() { kernelDefault.Store(prev) }, true
		}
	}
	return func() {}, false
}

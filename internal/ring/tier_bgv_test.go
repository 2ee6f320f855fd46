package ring_test

import (
	"reflect"
	"testing"

	"copse"
	"copse/internal/he"
	"copse/internal/ring"
	"copse/internal/synth"
)

// TestKernelTiersBGVPassIdentical runs one depth4 BGV classification
// pass (offload scenario, the shape of the solo benchmark) with the
// ring layer on the avx2 tier and on the avx512 tier, and asserts the
// result ciphertexts are identical and decrypt to the plaintext walk.
func TestKernelTiersBGVPassIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two BGV key generations and passes")
	}
	var forest *copse.Forest
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == "depth4" {
			f, err := synth.Generate(mb.Spec)
			if err != nil {
				t.Fatal(err)
			}
			forest = f
		}
	}
	if forest == nil {
		t.Fatal("no depth4 microbenchmark")
	}
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	feats := []uint64{3, 5}
	want := forest.Classify(feats)

	results := map[string]he.Operand{}
	for _, tier := range []string{"avx2", "avx512"} {
		restore, ok := ring.SetDefaultTierForTest(tier)
		if !ok {
			t.Logf("kernel tier %s skipped: host lacks it", tier)
			continue
		}
		sys, err := copse.NewSystem(compiled, copse.SystemConfig{
			Backend: copse.BackendBGV, Scenario: copse.ScenarioOffload,
			Security: copse.SecurityTest, Seed: 4,
		})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		query, err := sys.Diane.EncryptQuery(feats)
		if err != nil {
			t.Fatal(err)
		}
		enc, _, err := sys.Sally.Classify(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Diane.DecryptResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range want {
			if res.PerTree[ti] != want[ti] {
				t.Fatalf("%s tier: tree %d label %d, plaintext walk %d", tier, ti, res.PerTree[ti], want[ti])
			}
		}
		op, _, err := enc.Operand()
		if err != nil {
			t.Fatal(err)
		}
		results[tier] = op
		sys.Service().Close()
		t.Logf("kernel tier %s ran", tier)
	}
	if len(results) < 2 {
		t.Skip("host supports fewer than two vector tiers; nothing to compare")
	}
	if !reflect.DeepEqual(results["avx2"], results["avx512"]) {
		t.Fatal("depth4 result ciphertexts differ between the avx2 and avx512 tiers")
	}
}

package copse_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"copse"
	"copse/internal/synth"
)

// TestPlannerNoiseProperty is the planner's soundness property on
// randomized models: for random synth forests of several shapes, every
// BGV (SecurityTest) answer under the static level schedule equals the
// plaintext forest walk, and the decrypt-side measured noise margin is
// positive at every stage boundary. The default run covers three
// shapes in the offload scenario and fits the -short budget;
// COPSE_PLAN_SOAK=1 widens it to more seeds, more shapes and both
// encrypted- and plaintext-model scenarios.
func TestPlannerNoiseProperty(t *testing.T) {
	soak := os.Getenv("COPSE_PLAN_SOAK") == "1"
	type shape struct {
		features, labels, precision, depth int
		branches                           []int
	}
	shapes := []shape{
		{2, 3, 4, 3, []int{5, 4}},
		{3, 2, 6, 4, []int{9}},
		{2, 4, 5, 2, []int{3, 3, 2}},
	}
	seeds := []uint64{1}
	scenarios := []copse.Scenario{copse.ScenarioOffload}
	if soak {
		shapes = append(shapes,
			shape{4, 3, 8, 5, []int{12, 7}},
			shape{1, 2, 3, 3, []int{6, 5, 4, 3}},
		)
		seeds = []uint64{1, 2, 3, 4}
		scenarios = append(scenarios, copse.ScenarioServerModel)
	}
	for si, sh := range shapes {
		for _, seed := range seeds {
			f, err := synth.Generate(synth.ForestSpec{
				Name: fmt.Sprintf("prop%d", si), NumFeatures: sh.features, NumLabels: sh.labels,
				Precision: sh.precision, MaxDepth: sh.depth, BranchesPerTree: sh.branches,
				Seed: seed*1000 + uint64(si),
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scenarios {
				name := fmt.Sprintf("shape%d/seed%d/%v", si, seed, sc)
				sys, err := copse.NewSystem(c, copse.SystemConfig{
					Backend: copse.BackendBGV, Scenario: sc,
					Security: copse.SecurityTest, MeasureNoise: true, Seed: seed,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rng := rand.New(rand.NewPCG(seed, uint64(si)))
				for range 2 {
					x := make([]uint64, f.NumFeatures)
					for i := range x {
						x[i] = rng.Uint64N(1 << f.Precision)
					}
					q, err := sys.Diane.EncryptQuery(x)
					if err != nil {
						t.Fatal(err)
					}
					enc, trace, err := sys.Sally.Classify(q)
					if err != nil {
						t.Fatalf("%s Classify(%v): %v", name, x, err)
					}
					res, err := sys.Diane.DecryptResult(enc)
					if err != nil {
						t.Fatal(err)
					}
					if want := f.Classify(x); !slices.Equal(res.PerTree, want) {
						t.Errorf("%s Classify(%v) = %v, plaintext walk %v", name, x, res.PerTree, want)
					}
					n := trace.Noise
					for stage, v := range map[string]int{
						"query": n.Query, "decisions": n.Decisions, "branchvec": n.BranchVec,
						"levelresult": n.LevelResult, "result": n.Result,
					} {
						if v <= 0 {
							t.Errorf("%s Classify(%v): measured %s noise margin %d, want > 0", name, x, stage, v)
						}
					}
				}
				sys.Service().Close()
			}
		}
	}
}

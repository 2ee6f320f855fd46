package core

import (
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
	"copse/internal/synth"
)

// planForests returns the scenario corpus the level-plan regression
// tests sweep: the Figure 1 running example plus synthetic micro models
// of varying depth and width.
func planForests(t *testing.T, short bool) map[string]*model.Forest {
	t.Helper()
	forests := map[string]*model.Forest{"figure1": model.Figure1()}
	if short {
		return forests
	}
	for _, name := range []string{"depth4", "width55"} {
		for _, mb := range synth.Microbenchmarks() {
			if mb.Name != name {
				continue
			}
			f, err := synth.Generate(mb.Spec)
			if err != nil {
				t.Fatal(err)
			}
			forests[name] = f
		}
	}
	return forests
}

// TestLevelPlanComputed: every compiled model carries a structurally
// sound schedule — monotone non-increasing along the pipeline, final
// level positive, and a chain no longer than the reactive
// recommendation.
func TestLevelPlanComputed(t *testing.T) {
	for name, f := range planForests(t, false) {
		c, err := Compile(f, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		plan := c.Meta.LevelPlan
		if plan == nil {
			t.Fatalf("%s: no level plan computed", name)
		}
		if plan.Levels >= c.Meta.RecommendedLevels {
			t.Errorf("%s: planned chain %d not shorter than reactive %d", name, plan.Levels, c.Meta.RecommendedLevels)
		}
		for scenario, st := range map[string]StageLevels{"cipher": plan.Cipher, "plain": plan.Plain} {
			if st.Final < 1 {
				t.Errorf("%s/%s: final level %d below 1", name, scenario, st.Final)
			}
			if !(st.Compare >= st.Reshuffle && st.Reshuffle >= st.Level &&
				st.Level >= st.Accumulate && st.Accumulate >= st.Final) {
				t.Errorf("%s/%s: schedule not monotone: %+v", name, scenario, st)
			}
			// The deep stages must run on a small fraction of the chain.
			if st.Accumulate+1 > plan.Levels/2 {
				t.Errorf("%s/%s: product tree enters at %d limbs on a %d-prime chain", name, scenario, st.Accumulate+1, plan.Levels)
			}
			// The Sklansky rounds inside compare carry their own
			// schedule: one entry per round, non-increasing, bracketed by
			// the stage's own entry and exit, and actually shedding limbs
			// before the boundary (the compare stage is the expensive
			// one; per-round drops are its whole point).
			if len(st.CompareRounds) != log2Ceil(c.Meta.Precision) {
				t.Errorf("%s/%s: %d compare rounds scheduled, want %d", name, scenario, len(st.CompareRounds), log2Ceil(c.Meta.Precision))
			}
			prev := st.Compare
			for r, lvl := range st.CompareRounds {
				if lvl > prev || lvl < st.Reshuffle {
					t.Errorf("%s/%s: compare round %d level %d outside [%d, %d]", name, scenario, r, lvl, st.Reshuffle, prev)
				}
				prev = lvl
			}
			if n := len(st.CompareRounds); n > 0 && st.CompareRounds[n-1] > st.Reshuffle+1 {
				t.Errorf("%s/%s: last compare round still at level %d, reshuffle entry is %d", name, scenario, st.CompareRounds[n-1], st.Reshuffle)
			}
		}
	}
}

// TestRotationStepLevelsAgreeWithRotationSteps pins the Galois-key
// level budget to the compiler's step enumeration: RotationStepLevels
// and rotationSteps each enumerate the kernel and replication steps, so
// a divergence between them would either leave dead map entries
// (harmless but wrong) or silently forfeit key-material savings. The
// contract: every map entry names a staged step within the chain, and
// every staged step that is not a positive power of two (the
// composition ladder, deliberately kept at the top) carries a level.
func TestRotationStepLevelsAgreeWithRotationSteps(t *testing.T) {
	for name, f := range planForests(t, false) {
		for _, noBSGS := range []bool{false, true} {
			c, err := Compile(f, Options{Slots: 1024, NoBSGS: noBSGS})
			if err != nil {
				t.Fatal(err)
			}
			if c.Meta.LevelPlan == nil {
				t.Fatalf("%s: no level plan", name)
			}
			staged := map[int]bool{}
			for _, s := range c.Meta.RotationSteps {
				staged[s] = true
			}
			for _, encModel := range []bool{true, false} {
				levels := c.Meta.RotationStepLevels(encModel)
				top := c.Meta.LevelPlan.For(encModel).Compare
				for s, lvl := range levels {
					if !staged[s] {
						t.Errorf("%s noBSGS=%v enc=%v: leveled step %d is not in RotationSteps", name, noBSGS, encModel, s)
					}
					if lvl < 0 || lvl > top {
						t.Errorf("%s noBSGS=%v enc=%v: step %d level %d outside [0, %d]", name, noBSGS, encModel, s, lvl, top)
					}
				}
				for _, s := range c.Meta.RotationSteps {
					if s > 0 && s&(s-1) == 0 {
						continue // ladder steps stay at the top by design
					}
					if _, ok := levels[s]; !ok {
						t.Errorf("%s noBSGS=%v enc=%v: staged step %d has no level budget", name, noBSGS, encModel, s)
					}
				}
			}
		}
	}
}

// TestLevelPlanNoBSGSAndShuffleVariants: the ablation stagings also get
// feasible plans, and PlanShuffle reserves at least the shuffle's entry.
func TestLevelPlanNoBSGSAndShuffleVariants(t *testing.T) {
	f := model.Figure1()
	naive, err := Compile(f, Options{Slots: 1024, NoBSGS: true})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Meta.LevelPlan == nil {
		t.Fatal("naive staging: no level plan")
	}
	off, err := Compile(f, Options{Slots: 1024, NoLevelPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Meta.LevelPlan != nil {
		t.Fatal("NoLevelPlan still produced a plan")
	}
	sh, err := Compile(f, Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := sh.Meta.LevelPlan
	if plan == nil {
		t.Fatal("PlanShuffle staging: no level plan")
	}
	if plan.Cipher.Final < plan.ShuffleLevel() || plan.Plain.Final < plan.ShuffleLevel() {
		t.Errorf("PlanShuffle did not reserve shuffle headroom: %+v", plan)
	}
}

// planBackend builds a BGV backend on the plan-sized chain, the way the
// serving layer does.
func planBackend(t *testing.T, c *Compiled, encModel bool) *hebgv.Backend {
	t.Helper()
	levels := c.Meta.RecommendedLevels
	if c.Meta.LevelPlan != nil {
		levels = c.Meta.LevelPlan.ChainLevels(encModel)
	}
	b, err := hebgv.New(hebgv.Config{
		Params:        bgv.TestParams(levels),
		RotationSteps: c.Meta.RotationSteps,
		Seed:          33,
	})
	if err != nil {
		t.Fatalf("hebgv.New: %v", err)
	}
	return b
}

// TestClassifyPlannedNoiseHeadroom is the noise-headroom regression over
// the scenario corpus: every BGV Classify under the static schedule must
// decrypt with positive noise budget, land exactly at the planned final
// level, and classify correctly — on the plan-sized (shortened) chain.
func TestClassifyPlannedNoiseHeadroom(t *testing.T) {
	scenarios := []struct {
		name     string
		encModel bool
	}{
		{"offload", true},
		{"servermodel", false},
	}
	for name, f := range planForests(t, testing.Short()) {
		for _, sc := range scenarios {
			c, err := Compile(f, Options{Slots: 1024})
			if err != nil {
				t.Fatal(err)
			}
			plan := c.Meta.LevelPlan
			if plan == nil {
				t.Fatalf("%s: no plan", name)
			}
			b := planBackend(t, c, sc.encModel)
			m, err := Prepare(b, c, sc.encModel)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{Backend: b, Workers: 4, SkipZeroDiagonals: !sc.encModel}
			inputs := [][]uint64{{0, 5}, {3, 2}, {15, 15}}
			if f.NumFeatures != 2 {
				inputs = [][]uint64{make([]uint64, f.NumFeatures)}
				for i := range inputs[0] {
					inputs[0][i] = uint64(i % (1 << uint(f.Precision)))
				}
			}
			for _, feats := range inputs {
				want := f.Classify(feats)
				q, err := PrepareQuery(b, &m.Meta, feats, true)
				if err != nil {
					t.Fatal(err)
				}
				out, trace, err := e.Classify(m, q)
				if err != nil {
					t.Fatalf("%s/%s Classify(%v): %v", name, sc.name, feats, err)
				}
				budget, err := b.NoiseBudget(out.Ct)
				if err != nil {
					t.Fatal(err)
				}
				if budget <= 0 {
					t.Fatalf("%s/%s Classify(%v): noise budget %d", name, sc.name, feats, budget)
				}
				level, err := b.CiphertextLevel(out.Ct)
				if err != nil {
					t.Fatal(err)
				}
				if wantLevel := plan.For(sc.encModel).Final; level != wantLevel {
					t.Errorf("%s/%s: result at level %d, plan schedules %d", name, sc.name, level, wantLevel)
				}
				if trace.Limbs.Result != plan.For(sc.encModel).Final+1 {
					t.Errorf("%s/%s: trace reports %d result limbs", name, sc.name, trace.Limbs.Result)
				}
				slots, err := he.Reveal(b, out)
				if err != nil {
					t.Fatal(err)
				}
				res, err := DecodeResult(&m.Meta, slots)
				if err != nil {
					t.Fatalf("%s/%s DecodeResult(%v): %v", name, sc.name, feats, err)
				}
				for ti := range want {
					if res.PerTree[ti] != want[ti] {
						t.Errorf("%s/%s Classify(%v) tree %d = L%d, want L%d", name, sc.name, feats, ti, res.PerTree[ti], want[ti])
					}
				}
			}
		}
	}
}

// TestPlannedVsReactiveEquivalence is the property test: on one shared
// backend (reactive chain length), the level-scheduled and reactive
// evaluations of the same queries must decrypt to identical leaf
// vectors.
func TestPlannedVsReactiveEquivalence(t *testing.T) {
	f := model.Figure1()
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.LevelPlan == nil {
		t.Fatal("no plan")
	}
	b := newBGVBackend(t, c) // reactive chain: both stagings fit
	planned, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	reactive, err := PrepareWithPlan(b, c, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reactive.Plan != nil || reactive.Meta.LevelPlan != nil {
		t.Fatal("reactive staging still advertises a plan")
	}
	e := &Engine{Backend: b, Workers: 4}
	inputs := [][]uint64{{0, 5}, {6, 0}, {3, 2}, {15, 15}}
	if testing.Short() {
		inputs = inputs[:2]
	}
	for _, feats := range inputs {
		qPlanned, err := PrepareQuery(b, &planned.Meta, feats, true)
		if err != nil {
			t.Fatal(err)
		}
		qReactive, err := PrepareQuery(b, &reactive.Meta, feats, true)
		if err != nil {
			t.Fatal(err)
		}
		outP, traceP, err := e.Classify(planned, qPlanned)
		if err != nil {
			t.Fatalf("planned Classify(%v): %v", feats, err)
		}
		outR, traceR, err := e.Classify(reactive, qReactive)
		if err != nil {
			t.Fatalf("reactive Classify(%v): %v", feats, err)
		}
		if traceP.Limbs.Result == 0 || traceR.Limbs.Result != 0 &&
			traceR.Limbs.Result < traceP.Limbs.Result {
			t.Errorf("limb trace: planned %+v, reactive %+v", traceP.Limbs, traceR.Limbs)
		}
		slotsP, err := he.Reveal(b, outP)
		if err != nil {
			t.Fatal(err)
		}
		slotsR, err := he.Reveal(b, outR)
		if err != nil {
			t.Fatal(err)
		}
		window := planned.Meta.NumLeaves
		for i := 0; i < window; i++ {
			if slotsP[i] != slotsR[i] {
				t.Fatalf("Classify(%v): planned and reactive leaf vectors differ at slot %d (%d vs %d)",
					feats, i, slotsP[i], slotsR[i])
			}
		}
	}
}

// TestShuffleUnderLevelPlanBGV: the default minimal schedule lands the
// result below the shuffle's entry (clear error), and a PlanShuffle
// staging reserves the headroom so ShuffleResult works on real
// ciphertexts.
func TestShuffleUnderLevelPlanBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV integration test")
	}
	forest := model.Figure1()
	feats := []uint64{0, 5} // classifies as L4

	classify := func(c *Compiled) (he.Operand, *ModelOperands, *hebgv.Backend) {
		b := planBackend(t, c, true)
		m, err := Prepare(b, c, true)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Backend: b, Workers: 4}
		q, err := PrepareQuery(b, &m.Meta, feats, true)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := e.Classify(m, q)
		if err != nil {
			t.Fatal(err)
		}
		return out, m, b
	}

	minimal, err := Compile(forest, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	out, m, b := classify(minimal)
	if _, _, err := ShuffleResult(b, &m.Meta, out, 0, 7); err == nil {
		t.Error("minimal schedule: ShuffleResult should report missing headroom")
	}

	withShuffle, err := Compile(forest, Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	out, m, b = classify(withShuffle)
	shuffled, cb, err := ShuffleResult(b, &m.Meta, out, 0, 7)
	if err != nil {
		t.Fatalf("PlanShuffle staging: ShuffleResult: %v", err)
	}
	slots, err := he.Reveal(b, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeShuffled(cb, len(forest.Labels), slots)
	if err != nil {
		t.Fatal(err)
	}
	if res.Votes[4] != 1 {
		t.Errorf("shuffled votes %v, want one vote for L4", res.Votes)
	}
}

// TestNoiseModelMatchesEvaluator pins the planner to the evaluator for
// every shipped preset: a fresh encryption, a modulus switch of it and a
// rotation at each level carry exactly the noise estimates the planner
// simulates with (the evaluator's running NoiseBits is what its own
// noise management acts on).
func TestNoiseModelMatchesEvaluator(t *testing.T) {
	const levels = 4
	for _, p := range []bgv.Params{bgv.TestParams(levels), bgv.DemoParams(levels), bgv.Secure128Params(levels)} {
		nm := planNoiseModel(p.Slots(), slackConfig{})
		params, err := bgv.NewParameters(p)
		if err != nil {
			t.Fatal(err)
		}
		kg := bgv.NewSeededKeyGenerator(params, 3)
		sk := kg.GenSecretKey()
		elt := params.GaloisElt(1)
		keys := &bgv.EvaluationKeys{Galois: map[uint64]*bgv.SwitchingKey{elt: kg.GenGaloisKey(sk, elt)}}
		enc := bgv.NewSeededEncryptor(params, kg.GenPublicKey(sk), 4)
		ev := bgv.NewEvaluator(params, keys)
		pt := bgv.NewPlaintext(make([]uint64, p.N()))

		fresh := enc.Encrypt(pt)
		if fresh.NoiseBits != nm.fresh() {
			t.Errorf("LogN %d: fresh noise %.2f, planner %.2f", p.LogN, fresh.NoiseBits, nm.fresh())
		}
		if err := ev.ModSwitch(fresh); err != nil {
			t.Fatal(err)
		}
		if fresh.NoiseBits != nm.floor() {
			t.Errorf("LogN %d: switched noise %.2f, planner floor %.2f", p.LogN, fresh.NoiseBits, nm.floor())
		}
		for level := 1; level < levels; level++ {
			rot, err := ev.Rotate(enc.EncryptAtLevel(pt, level), 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := max(nm.fresh(), nm.ks(level)) + 1; rot.NoiseBits != want {
				t.Errorf("LogN %d level %d: key-switch noise %.2f, planner %.2f", p.LogN, level, rot.NoiseBits, want)
			}
		}
	}
}

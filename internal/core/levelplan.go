package core

import (
	"math"
	"math/bits"

	"copse/internal/bgv"
	"copse/internal/matrix"
)

// Static level scheduling ("Level Up", Mahdavi et al. 2309.06496, applied
// to the COPSE pipeline): every BGV operation's cost scales with the
// number of active RNS limbs, yet reactive noise management keeps
// ciphertexts as high on the modulus chain as the noise allows — so the
// deep, rotation-heavy back half of Algorithm 1 pays full-chain NTTs and
// key switches whose noise budget needs only one or two limbs. The
// compiler instead runs its per-op noise model forward over the whole
// pipeline at staging time and records a per-stage target level; the
// engine proactively drops ciphertexts at each stage boundary, model
// operands are encrypted (or pre-lifted) directly at their scheduled
// level, and the serving backend sizes its chain — and its switching
// keys — to the plan's top instead of the reactive recommendation.
//
// The simulator MUST mirror internal/bgv/evaluator.go op for op, and it
// prices noise with bgv's own exported formulas: the plan is only a
// schedule, the evaluator's own management still guards correctness,
// but a plan more aggressive than the evaluator's noise accounting would
// make Classify fail with "modulus chain exhausted". The regression
// tests in levelplan_test.go pin the two together.

// LevelPlan is a compile-time schedule assigning each pipeline stage the
// modulus-chain level it executes at. Levels are absolute: level 0 is
// the last prime of a chain of Levels primes, and a backend with a
// longer chain simply never uses the extra top primes (operands are
// produced at the scheduled levels directly). Old artifacts carry no
// plan (nil) and fall back to reactive noise management.
type LevelPlan struct {
	// Levels is the chain length (prime count) the plan was computed
	// for — the fraction of the reactive recommendation the scheduled
	// pipeline actually needs.
	Levels int
	// Cipher is the schedule for encrypted-model scenarios, Plain for
	// plaintext-model ones (the features are encrypted either way; the
	// all-plaintext configuration performs no homomorphic ops and
	// ignores the plan).
	Cipher, Plain StageLevels
}

// StageLevels is one scenario's schedule: the level each stage of
// Algorithm 1 enters at. Operands consumed by a stage are staged at its
// entry level.
type StageLevels struct {
	// Compare is where the query bit planes and threshold planes sit.
	Compare int
	// Reshuffle is the reshuffle mat-vec entry (reshuffle diagonals).
	Reshuffle int
	// Level is the per-level mat-vec entry (level diagonals and masks).
	Level int
	// Accumulate is the product-tree entry.
	Accumulate int
	// Final is the level the classification result lands at.
	Final int
	// Shuffle is the minimum level the optional result shuffle (§7.2.2)
	// needs at entry. With the default minimal schedule the result lands
	// below it; compile with Options.PlanShuffle to reserve the headroom.
	Shuffle int
	// CompareRounds schedules the Sklansky prefix-product tree inside
	// the compare stage: CompareRounds[r] is the level every prefix
	// operand is dropped to after round r, so the later rounds of the
	// single most expensive stage run on 1–2 fewer limbs than reactive
	// management would keep them at. Derived by lowering each round's
	// simulated level until the full-pipeline simulation breaks. Nil on
	// older artifacts (no per-round drops).
	CompareRounds []int
}

// For returns the schedule for a scenario.
func (p *LevelPlan) For(encryptedModel bool) StageLevels {
	if encryptedModel {
		return p.Cipher
	}
	return p.Plain
}

// QueryLevel is the level query bit planes are produced at. Diane does
// not know whether the model she queries is encrypted, so the planes
// land at the deeper of the two compare entries; the engine drops them
// the remaining step on the shallower path.
func (p *LevelPlan) QueryLevel() int {
	return max(p.Cipher.Compare, p.Plain.Compare)
}

// ChainLevels is the chain length a backend needs to serve the given
// scenario under this plan.
func (p *LevelPlan) ChainLevels(encryptedModel bool) int {
	return p.For(encryptedModel).Compare + 1
}

// ShuffleLevel is the entry level ShuffleResult needs, across scenarios.
func (p *LevelPlan) ShuffleLevel() int {
	return max(p.Cipher.Shuffle, p.Plain.Shuffle)
}

// noiseModel prices the pipeline with internal/bgv's own noise
// formulas (bgv.FreshNoiseBits, ModSwitchFloorBits, KeySwitchNoiseBits)
// evaluated on the shipped parameter family at the model's packing
// width, so planner and evaluator cannot drift apart. Estimates err on
// the safe side: the modulus bit length is rounded down, and per-stage
// slack bits are kept in hand on every headroom check.
type noiseModel struct {
	params    bgv.Params
	tBits     int
	primeBits int
	// stageSlack is the safety margin (bits) held back on every
	// headroom check, indexed by the pipeline stage the simulator is
	// walking: 0 compare, 1 reshuffle, 2 level, 3 accumulate, 4 the
	// final decryptability check and the result shuffle.
	stageSlack [5]float64
}

// Per-stage slack defaults, calibrated against the measured noise
// margins in BENCH_levels.json: the model's estimates track the
// evaluator most loosely early in the pipeline, where the key-switch
// noise of the Sklansky rounds and the reshuffle mat-vec compounds
// through the longest remaining circuit — those stages keep 2 bits in
// hand. Downstream the measured margins run tens of bits wide, so the
// level mat-vec and the short accumulate/final tail hold less back,
// letting the schedule search shave entries the flat legacy slack
// forced it to keep.
var stageSlackDefaults = [5]float64{2, 2, 1.5, 1, 1}

const (
	// slackFloorDefault floors every stage's slack when
	// Options.SlackFloorBits is unset.
	slackFloorDefault = 1
	// flatSlackBits is the legacy uniform slack (Options.FlatSlack).
	flatSlackBits = 3
)

// slackConfig carries the compile-time slack knobs
// (Options.SlackFloorBits / Options.FlatSlack) into the planner; the
// zero value selects the calibrated per-stage defaults.
type slackConfig struct {
	floorBits float64
	flat      bool
}

// planNoiseModel returns the model for a packing width (slots = N/2)
// under the given slack profile.
func planNoiseModel(slots int, sl slackConfig) noiseModel {
	p := bgv.PresetParams(log2Ceil(slots)+1, 1)
	nm := noiseModel{
		params:    p,
		tBits:     bits.Len64(p.T),
		primeBits: p.PrimeBits,
	}
	nm.stageSlack = stageSlackDefaults
	if sl.flat {
		for i := range nm.stageSlack {
			nm.stageSlack[i] = flatSlackBits
		}
	}
	floor := sl.floorBits
	if floor <= 0 {
		floor = slackFloorDefault
	}
	for i := range nm.stageSlack {
		nm.stageSlack[i] = math.Max(nm.stageSlack[i], floor)
	}
	return nm
}

// qBits lower-bounds the modulus bit length at a level.
func (nm noiseModel) qBits(level int) float64 {
	return float64((level+1)*nm.primeBits - 1)
}

// floor is the noise level right after a modulus switch.
func (nm noiseModel) floor() float64 { return bgv.ModSwitchFloorBits(nm.params) }

// ks is the additive noise of one key switch at a level.
func (nm noiseModel) ks(level int) float64 { return bgv.KeySwitchNoiseBits(nm.params, level) }

// fresh is the noise of a fresh public-key encryption.
func (nm noiseModel) fresh() float64 { return bgv.FreshNoiseBits(nm.params) }

// simCt is a simulated ciphertext: a (level, noise) pair plus the
// degree-2 flag of an unrelinearized product.
type simCt struct {
	level int
	noise float64
	deg2  bool
}

// simOp is a simulated operand: a ciphertext or a noiseless plaintext.
type simOp struct {
	cipher bool
	ct     simCt
}

func simPlain() simOp { return simOp{} }

func (nm noiseModel) simFresh(level int) simOp {
	return simOp{cipher: true, ct: simCt{level: level, noise: nm.fresh()}}
}

// Failure kinds drive the schedule search: a structural failure (the
// chain ran out of levels) is fixed by raising the failing stage's own
// entry, while a noise failure at a stage that entered hot is fixed by
// raising the *previous* stage — a deeper boundary drop then cools the
// carrier to the modulus-switch floor.
const (
	failNone = iota
	failLevel
	failNoise
)

// sim walks the evaluator's noise accounting over the pipeline's op
// sequence. The first infeasibility (noise past the evaluator's error
// threshold, or a multiplication/relinearization with no level left)
// sticks; callers inspect ok after a run.
type sim struct {
	nm   noiseModel
	ok   bool
	kind int

	// stage is the pipeline stage whose slack the headroom checks
	// consume (an index into nm.stageSlack); simulatePipeline advances
	// it across stage sections, shuffle simulations run at the final
	// stage's slack.
	stage int

	// compareTargets, when set, are per-round drop levels applied to the
	// prefix-product carrier inside compare (mirroring the engine's
	// CompareGTScheduled); compareLevels records the carrier's level
	// after each round either way.
	compareTargets []int
	compareLevels  []int
}

func newSim(nm noiseModel) *sim { return &sim{nm: nm, ok: true} }

// slack is the active stage's safety margin.
func (s *sim) slack() float64 { return s.nm.stageSlack[s.stage] }

func (s *sim) fail(kind int) {
	if s.ok {
		s.ok = false
		s.kind = kind
	}
}

func (s *sim) modSwitch(c *simCt) {
	if c.level == 0 {
		s.fail(failLevel)
		return
	}
	c.level--
	c.noise = math.Max(c.noise-float64(s.nm.primeBits), s.nm.floor())
}

// manage mirrors Evaluator.manage: switch down lazily, then verify the
// decryption margin (minus the active stage's slack).
func (s *sim) manage(c *simCt) {
	margin := float64(s.nm.tBits + 10)
	for c.level > 0 && c.noise > s.nm.qBits(c.level)-margin {
		s.modSwitch(c)
	}
	if c.noise > s.nm.qBits(c.level)-float64(s.nm.tBits)-2-s.slack() {
		s.fail(failNoise)
	}
}

func (s *sim) dropTo(c *simCt, level int) {
	for c.level > level {
		s.modSwitch(c)
	}
}

func (s *sim) dropOpTo(o simOp, level int) simOp {
	if o.cipher {
		s.dropTo(&o.ct, level)
	}
	return o
}

func (s *sim) align(a, b *simCt) {
	for a.level > b.level {
		s.modSwitch(a)
	}
	for b.level > a.level {
		s.modSwitch(b)
	}
}

// tensor mirrors tensorProduct + the manage call of MulNoRelin.
func (s *sim) tensor(a, b simCt) simCt {
	s.align(&a, &b)
	floor := s.nm.floor()
	for a.level > 0 && a.noise >= floor+float64(s.nm.primeBits) {
		s.modSwitch(&a)
	}
	for b.level > a.level {
		s.modSwitch(&b)
	}
	if a.level == 0 {
		s.fail(failLevel)
		return a
	}
	out := simCt{level: a.level, noise: a.noise + b.noise + float64(s.nm.params.LogN) + 1, deg2: true}
	s.manage(&out)
	return out
}

// relin mirrors Relinearize: key-switch noise, one unconditional modulus
// switch, then management.
func (s *sim) relin(c simCt) simCt {
	if !c.deg2 {
		return c
	}
	c.noise = math.Max(c.noise, s.nm.ks(c.level)) + 1
	c.deg2 = false
	s.modSwitch(&c)
	s.manage(&c)
	return c
}

func (s *sim) mulCC(a, b simCt) simCt { return s.relin(s.tensor(a, b)) }

// rot mirrors checkGalois + galoisFromDigits + manage.
func (s *sim) rot(c simCt) simCt {
	if s.nm.qBits(c.level) < s.nm.ks(c.level)+float64(s.nm.tBits)+4+s.slack() {
		s.fail(failLevel)
		return c
	}
	c.noise = math.Max(c.noise, s.nm.ks(c.level)) + 1
	s.manage(&c)
	return c
}

func (s *sim) rotOp(o simOp) simOp {
	if o.cipher {
		o.ct = s.rot(o.ct)
	}
	return o
}

// mul mirrors he.Mul over operands.
func (s *sim) mul(x, y simOp) simOp {
	switch {
	case x.cipher && y.cipher:
		return simOp{cipher: true, ct: s.mulCC(x.ct, y.ct)}
	case x.cipher:
		return s.mulPlain(x)
	case y.cipher:
		return s.mulPlain(y)
	}
	return simPlain()
}

// mulLazy mirrors he.MulLazy: a cipher×cipher product stays degree 2.
func (s *sim) mulLazy(x, y simOp) simOp {
	if x.cipher && y.cipher {
		return simOp{cipher: true, ct: s.tensor(x.ct, y.ct)}
	}
	return s.mul(x, y)
}

func (s *sim) relinOp(o simOp) simOp {
	if o.cipher {
		o.ct = s.relin(o.ct)
	}
	return o
}

// mulPlain mirrors MulPlain's noise growth.
func (s *sim) mulPlain(x simOp) simOp {
	x.ct.noise += float64(s.nm.tBits) + float64(s.nm.params.LogN)/2 + 1
	s.manage(&x.ct)
	return x
}

// add mirrors he.Add / AddPlain.
func (s *sim) add(x, y simOp) simOp {
	switch {
	case x.cipher && y.cipher:
		s.align(&x.ct, &y.ct)
		out := simCt{level: x.ct.level, noise: math.Max(x.ct.noise, y.ct.noise) + 1, deg2: x.ct.deg2 || y.ct.deg2}
		s.manage(&out)
		return simOp{cipher: true, ct: out}
	case x.cipher:
		x.ct.noise++
		s.manage(&x.ct)
		return x
	case y.cipher:
		y.ct.noise++
		s.manage(&y.ct)
		return y
	}
	return simPlain()
}

// not mirrors he.Not: Neg + AddPlain for ciphertexts.
func (s *sim) not(x simOp) simOp {
	if !x.cipher {
		return x
	}
	x.ct.noise++
	s.manage(&x.ct)
	return x
}

// xor mirrors he.Xor.
func (s *sim) xor(x, y simOp) simOp {
	switch {
	case x.cipher && y.cipher:
		prod := s.mulCC(x.ct, y.ct)
		sum := s.add(x, y)
		twice := s.add(simOp{cipher: true, ct: prod}, simOp{cipher: true, ct: prod})
		return s.add(sum, twice) // Sub has Add's noise shape
	case x.cipher:
		x = s.mulPlain(x)
		x.ct.noise++
		s.manage(&x.ct)
		return x
	case y.cipher:
		y = s.mulPlain(y)
		y.ct.noise++
		s.manage(&y.ct)
		return y
	}
	return simPlain()
}

// compare simulates seccomp.CompareGT over p bit planes. The carrier eq
// follows the most-multiplied prefix element (every other element has
// seen a subset of its multiplications, hence no more level or noise).
func (s *sim) compare(p int, x, y simOp) simOp {
	eq := s.not(s.xor(x, y))
	gt := s.mul(x, s.not(y))
	// Sklansky prefix products over the eq planes, with the optional
	// per-round boundary drops.
	for round := 0; round < log2Ceil(max(p, 1)); round++ {
		eq = s.mul(eq, eq)
		if round < len(s.compareTargets) {
			eq = s.dropOpTo(eq, s.compareTargets[round])
		}
		lvl := 0
		if eq.cipher {
			lvl = eq.ct.level
		}
		s.compareLevels = append(s.compareLevels, lvl)
	}
	out := s.mul(gt, eq)
	for j := 1; j < p; j++ {
		out = s.add(out, out)
	}
	return out
}

// matVec simulates the diagonal kernels of internal/matrix over a
// baby/giant split (the naive kernel is the split baby=period, giant=1).
func (s *sim) matVec(v, diag simOp, baby, giant int) simOp {
	vr := v
	if baby > 1 {
		vr = s.rotOp(v)
	}
	acc := s.mulLazy(diag, vr)
	for j := 1; j < baby; j++ {
		acc = s.add(acc, s.mulLazy(diag, vr))
	}
	acc = s.relinOp(acc)
	if giant > 1 {
		acc = s.rotOp(acc)
	}
	out := acc
	for g := 1; g < giant; g++ {
		out = s.add(out, acc)
	}
	return out
}

// replicate simulates `steps` rotate-and-add doublings.
func (s *sim) replicate(v simOp, steps int) simOp {
	for i := 0; i < steps; i++ {
		v = s.add(v, s.rotOp(v))
	}
	return v
}

// pipelineShape is the structural information the simulator needs,
// extracted from Meta.
type pipelineShape struct {
	precision  int
	qSplit     [2]int // reshuffle kernel baby/giant
	bSplit     [2]int // level-matrix kernel baby/giant
	nSplit     [2]int // shuffle kernel baby/giant
	levels     int    // D: number of level matrices
	reshufRep  int    // replicate doublings after the reshuffle
	shuffleRep int    // replicate doublings before the single-query shuffle
	// shuffleRepB is the block-local doubling count of the batched
	// shuffle (ReplicateWithin to the batch block instead of the full
	// ciphertext; it pays no selector mul). Always ≤ shuffleRep.
	shuffleRepB int
	batched     bool // batch capacity > 1 (single-query shuffle pays a selector mul)
}

func shapeOf(m *Meta) pipelineShape {
	split := func(period int) [2]int {
		if m.UseBSGS {
			if baby, giant, ok := m.BSGSFor(period); ok {
				return [2]int{baby, giant}
			}
			baby, giant := matrix.BSGSSplit(period)
			return [2]int{baby, giant}
		}
		return [2]int{period, 1}
	}
	nPad := m.LPad()
	// The shuffle kernel always stages BSGS diagonals (shuffle.go).
	nBaby, nGiant := matrix.BSGSSplit(nPad)
	return pipelineShape{
		precision:   m.Precision,
		qSplit:      split(m.QPad),
		bSplit:      split(m.BPad),
		nSplit:      [2]int{nBaby, nGiant},
		levels:      max(m.D, 1),
		reshufRep:   log2Ceil(m.BatchBlock() / m.BPad),
		shuffleRep:  log2Ceil(m.Slots / nPad),
		shuffleRepB: log2Ceil(m.BatchBlock() / nPad),
		batched:     m.BatchCapacity() > 1,
	}
}

// stageEntries is the candidate schedule the search refines.
type stageEntries struct {
	compare, reshuffle, level, accumulate, final int
}

// simFailure reports why a candidate schedule is infeasible: the stage
// to blame (0 = compare, 1 = reshuffle, 2 = level, 3 = accumulate), the
// failure kind, and whether the failing stage entered with noise well
// above the modulus-switch floor (a hot entry — fixed by a deeper
// boundary drop, i.e. by raising the previous stage).
type simFailure struct {
	stage    int
	kind     int
	hotEntry bool
}

// simulatePipeline runs the whole pipeline at the candidate entries,
// with the engine's boundary-drop semantics (including the optional
// per-round compare drops). It returns the achieved final state, the
// compare carrier's per-round levels, or the failure that makes the
// candidate infeasible.
func simulatePipeline(nm noiseModel, sh pipelineShape, encModel bool, e stageEntries, compareTargets []int) (final simCt, rounds []int, fail simFailure, ok bool) {
	s := newSim(nm)
	s.compareTargets = compareTargets
	hot := func(o simOp) bool { return o.cipher && o.ct.noise > nm.floor()+8 }
	model := simPlain()
	if encModel {
		model = nm.simFresh(e.compare)
	}
	query := nm.simFresh(e.compare)

	// Stage 0: compare.
	s.stage = 0
	decisions := s.compare(sh.precision, query, model)
	if !s.ok {
		return simCt{}, s.compareLevels, simFailure{stage: 0, kind: s.kind}, false
	}
	if decisions.cipher && decisions.ct.level < e.reshuffle {
		return simCt{}, s.compareLevels, simFailure{stage: 0, kind: failLevel}, false
	}
	decisions = s.dropOpTo(decisions, e.reshuffle)

	// Stage 1: reshuffle mat-vec + replication.
	s.stage = 1
	diag := simPlain()
	if encModel {
		diag = nm.simFresh(e.reshuffle)
	}
	entryHot := hot(decisions)
	branch := s.matVec(decisions, diag, sh.qSplit[0], sh.qSplit[1])
	branch = s.replicate(branch, sh.reshufRep)
	if !s.ok {
		return simCt{}, s.compareLevels, simFailure{stage: 1, kind: s.kind, hotEntry: entryHot}, false
	}
	if branch.cipher && branch.ct.level < e.level {
		return simCt{}, s.compareLevels, simFailure{stage: 1, kind: failLevel}, false
	}
	branch = s.dropOpTo(branch, e.level)

	// Stage 2: per-level mat-vecs + mask XOR.
	s.stage = 2
	lvlDiag, mask := simPlain(), simPlain()
	if encModel {
		lvlDiag = nm.simFresh(e.level)
		mask = nm.simFresh(e.level)
	}
	entryHot = hot(branch)
	lvl := s.xor(s.matVec(branch, lvlDiag, sh.bSplit[0], sh.bSplit[1]), mask)
	if !s.ok {
		return simCt{}, s.compareLevels, simFailure{stage: 2, kind: s.kind, hotEntry: entryHot}, false
	}
	if lvl.cipher && lvl.ct.level < e.accumulate {
		return simCt{}, s.compareLevels, simFailure{stage: 2, kind: failLevel}, false
	}
	lvl = s.dropOpTo(lvl, e.accumulate)

	// Stage 3: product-tree accumulation.
	s.stage = 3
	entryHot = hot(lvl)
	out := lvl
	for n := sh.levels; n > 1; n = (n + 1) / 2 {
		out = s.mul(out, out)
	}
	if !s.ok {
		return simCt{}, s.compareLevels, simFailure{stage: 3, kind: s.kind, hotEntry: entryHot}, false
	}
	if out.cipher && out.ct.level < e.final {
		return simCt{}, s.compareLevels, simFailure{stage: 3, kind: failLevel}, false
	}
	out = s.dropOpTo(out, e.final)
	if !out.cipher {
		return simCt{}, s.compareLevels, simFailure{}, s.ok
	}
	// Decryptability at the final level.
	s.stage = 4
	s.manage(&out.ct)
	if !s.ok {
		return simCt{}, s.compareLevels, simFailure{stage: 3, kind: s.kind, hotEntry: entryHot}, false
	}
	return out.ct, s.compareLevels, simFailure{}, true
}

// simulateShuffle runs the optional result shuffle from the given
// input, through both kernels that share the Shuffle entry level: the
// single-query one (selector mul when batched, whole-ciphertext
// replicate) and the block-local batched one (ReplicateWithin to the
// batch block, no selector, block-diagonal permutation). The batched
// kernel does strictly less work, but simulating both keeps the entry
// level sound if the shapes ever diverge.
func simulateShuffle(nm noiseModel, sh pipelineShape, in simCt) bool {
	single := func() bool {
		s := newSim(nm)
		s.stage = 4
		v := simOp{cipher: true, ct: in}
		if sh.batched {
			v = s.mulPlain(v)
		}
		v = s.replicate(v, sh.shuffleRep)
		v = s.matVec(v, simPlain(), sh.nSplit[0], sh.nSplit[1])
		if v.cipher {
			s.manage(&v.ct)
		}
		return s.ok
	}
	batched := func() bool {
		s := newSim(nm)
		s.stage = 4
		v := simOp{cipher: true, ct: in}
		v = s.replicate(v, sh.shuffleRepB)
		v = s.matVec(v, simPlain(), sh.nSplit[0], sh.nSplit[1])
		if v.cipher {
			s.manage(&v.ct)
		}
		return s.ok
	}
	return single() && batched()
}

// planCap bounds the schedule search: no realistic model needs a deeper
// chain (the reactive recommendation for the deepest supported forests
// stays well below it).
const planCap = 48

// scheduleScenario finds minimal stage entries for one scenario by
// repeatedly simulating and raising one entry per round: the failing
// stage's own on a structural failure (it ran out of levels), the
// previous stage's when the failure traces back to a hot entry — a
// deeper boundary drop then delivers the carrier at the modulus-switch
// floor instead of carrying key-switch noise into the next stage.
func scheduleScenario(nm noiseModel, sh pipelineShape, encModel bool, final int) (stageEntries, simCt, bool) {
	e := stageEntries{compare: final, reshuffle: final, level: final, accumulate: final, final: final}
	bump := func(stage int) {
		switch stage {
		case 0:
			e.compare++
		case 1:
			e.reshuffle++
		case 2:
			e.level++
		case 3:
			e.accumulate++
		}
	}
	for iter := 0; iter < 16*planCap; iter++ {
		out, _, fail, ok := simulatePipeline(nm, sh, encModel, e, nil)
		if ok {
			return e, out, true
		}
		if fail.hotEntry && fail.stage > 0 {
			// A hot entry means the boundary drop was too shallow to cool
			// the carrier; raising the previous stage deepens the drop.
			// If the stage stays infeasible once its entry is cold, the
			// next rounds raise the stage itself.
			bump(fail.stage - 1)
		} else {
			bump(fail.stage)
		}
		// Entries are non-increasing along the pipeline by construction.
		e.level = max(e.level, e.accumulate)
		e.reshuffle = max(e.reshuffle, e.level)
		e.compare = max(e.compare, e.reshuffle)
		if e.compare > planCap {
			break
		}
	}
	return e, simCt{}, false
}

// shuffleEntryLevel finds the minimal entry level of the result shuffle,
// assuming a modulus-switch-floored input (ShuffleResult drops inputs
// arriving above it).
func shuffleEntryLevel(nm noiseModel, sh pipelineShape) int {
	for level := 1; level <= planCap; level++ {
		if simulateShuffle(nm, sh, simCt{level: level, noise: nm.floor()}) {
			return level
		}
	}
	return planCap
}

// compareRoundPlan derives the per-round Sklansky drop levels for a
// feasible schedule: starting from the reactive per-round trajectory the
// simulator records, it lowers each round's level — last round first,
// where the remaining circuit is shortest — as far as the full-pipeline
// simulation stays feasible. The result is what the engine feeds
// seccomp.CompareGTScheduled; nil (no rounds, or a simulator
// disagreement) simply means no per-round drops.
func compareRoundPlan(nm noiseModel, sh pipelineShape, encModel bool, e stageEntries) []int {
	_, reactive, _, ok := simulatePipeline(nm, sh, encModel, e, nil)
	if !ok || len(reactive) == 0 {
		return nil
	}
	targets := append([]int(nil), reactive...)
	feasible := func(t []int) bool {
		_, _, _, ok := simulatePipeline(nm, sh, encModel, e, t)
		return ok
	}
	for r := len(targets) - 1; r >= 0; r-- {
		for targets[r] > e.reshuffle {
			targets[r]--
			if !feasible(targets) {
				targets[r]++
				break
			}
		}
	}
	// Tidy: a round target above its predecessor's can never bind (the
	// carrier only descends).
	for r := 1; r < len(targets); r++ {
		targets[r] = min(targets[r], targets[r-1])
	}
	if !feasible(targets) {
		return nil
	}
	return targets
}

// computeLevelPlan builds the static schedule for a compiled model, or
// nil when no feasible schedule exists within the search bound (the
// engine then falls back to reactive management). The slack profile
// (Options.SlackFloorBits / Options.FlatSlack) shapes how much noise
// headroom each stage's checks keep in hand.
func computeLevelPlan(m *Meta, planShuffle bool, sl slackConfig) *LevelPlan {
	nm := planNoiseModel(m.Slots, sl)
	sh := shapeOf(m)
	shuffleAt := shuffleEntryLevel(nm, sh)
	minFinal := 1
	if planShuffle {
		// Reserve headroom so the classification result can still feed
		// the result shuffle.
		minFinal = max(minFinal, shuffleAt)
	}
	plan := &LevelPlan{}
	for _, encModel := range []bool{true, false} {
		// The shuffle entry level assumes a modulus-switch-floored input,
		// but a result landing *exactly* at the entry level can arrive
		// hot (no switch left to cool it — depth-4 forests do). Raising
		// the final level by one puts a boundary drop between the
		// pipeline and the shuffle, which floors the carrier; search
		// upward until the shuffle simulates clean.
		var st StageLevels
		found := false
		for final := minFinal; final <= planCap && !found; final++ {
			e, out, ok := scheduleScenario(nm, sh, encModel, final)
			if !ok {
				break // deeper finals only make the pipeline harder
			}
			if planShuffle {
				s := newSim(nm)
				s.stage = 4
				s.dropTo(&out, shuffleAt) // ShuffleResult's entry drop
				if !s.ok || !simulateShuffle(nm, sh, out) {
					continue
				}
			}
			st = StageLevels{
				Compare:       e.compare,
				Reshuffle:     e.reshuffle,
				Level:         e.level,
				Accumulate:    e.accumulate,
				Final:         e.final,
				Shuffle:       shuffleAt,
				CompareRounds: compareRoundPlan(nm, sh, encModel, e),
			}
			found = true
		}
		if !found {
			return nil
		}
		if encModel {
			plan.Cipher = st
		} else {
			plan.Plain = st
		}
	}
	plan.Levels = plan.QueryLevel() + 1
	return plan
}

package core

import (
	"slices"
	"sync"

	"copse/internal/he"
	"copse/internal/matrix"
)

// This file implements the model-specialized op program: at Prepare time
// the artifact plus its level plan is compiled into a flat, static
// schedule of primitive homomorphic ops (DESIGN.md §13). The engine then
// executes that schedule instead of re-deriving the pipeline structure —
// BSGS loop bounds, rotation steps, level-drop targets, XOR decomposition
// — on every Classify call, and the builder applies model-visible
// algebraic rewrites the generic interpreter cannot:
//
//   - gt_j = x_j·(1−y_j) = x_j − x_j·y_j reuses the product the XOR of
//     eq_j already computed, saving one ct-ct multiplication per bit
//     plane;
//   - the inclusive prefix product of the last bit plane is never read
//     by the gt sum, so its Sklansky chain (and the last plane's eq
//     chain) is dead code;
//   - the gt sum accumulates lazy (unrelinearized) products and pays for
//     a single relinearization instead of one per plane;
//   - the j=0 gt term's multiply-by-ones is the identity;
//   - the plaintext constants of ¬ and ⊕ (ones, XOR coefficient/offset
//     pairs) are encoded once at bind time instead of per call;
//   - with a plaintext model, eq_j = ¬(x_j ⊕ y_j) folds into a single
//     affine pair, gt_j into one plaintext multiplication, and an
//     all-zero level mask into the identity.
//
// Every rewrite preserves the decrypted result bit-for-bit (BGV
// arithmetic mod t is exact; only noise estimates differ), which the
// specialized-vs-generic property tests assert across the scenario
// corpus. Registers are SSA — each op writes a fresh register — so any
// two ops whose inputs are ready can run concurrently without
// synchronization, and the result is identical for any schedule
// (executor.go runs the program's dependency graph on the engine's
// workers).

// opCode enumerates the primitive ops of the program IR. The operand
// fields of progOp are interpreted per code; see passCtx.exec for the
// runtime semantics.
type opCode uint8

const (
	opQuery   opCode = iota // R[Dst] = query bit plane Imm
	opThresh                // R[Dst] = model threshold plane Imm
	opMask                  // R[Dst] = level mask Imm
	opConst                 // R[Dst] = bound plaintext constant Imm
	opAdd                   // R[Dst] = R[A] + R[B]
	opSub                   // R[Dst] = R[A] − R[B] (both ciphertext)
	opMul                   // R[Dst] = R[A] · R[B]
	opMulLazy               // R[Dst] = R[A] ⊗ R[B] (unrelinearized)
	opMulDiag               // R[Dst] = diag(Imm, Imm2) ⊗ R[A] (lazy)
	opRelin                 // R[Dst] = relinearize(R[A])
	opNeg                   // R[Dst] = −R[A] (ciphertext)
	opRot                   // R[Dst] = rot(R[A], Imm)
	opHoist                 // R[Dst+i] = rot(R[A], hoists[Imm][i]) (hoisted)
	opDrop                  // R[Dst] = R[A] switched down to level Imm
)

// progOp is one op of the flat program. Dst/A/B are register indices;
// Imm/Imm2 carry per-code immediates (plane index, rotation step, level,
// matrix/diagonal index, hoist-table index).
type progOp struct {
	Code      opCode
	Dst, A, B int
	Imm, Imm2 int
}

// Pipeline stage tags, in execution order. Ops are emitted stage by
// stage, and the executor keeps the per-stage trace windows of the
// generic path by running each stage to completion before the next.
const (
	stCompare = iota
	stReshuffle
	stLevels
	stAccumulate
	stDone
)

// constKind enumerates the bind-time plaintext constants. Their slot
// values are derived from the model's plaintext components and the
// backend's plaintext modulus when the program is bound, so the program
// itself is backend-agnostic.
type constKind uint8

const (
	ckOnes       constKind = iota // all-ones (the ¬ offset)
	ckThreshCoef                  // (2·y−1) mod t over threshold plane Index (eq fold)
	ckThreshNot                   // (1−y) mod t over threshold plane Index (eq offset and gt factor)
	ckMaskCoef                    // (1−2·m) mod t over padded mask Index
	ckMaskAdd                     // m mod t over padded mask Index
)

type constSpec struct {
	Kind  constKind
	Index int
}

// Program is the compiled op schedule for one prepared model. It is
// built by buildProgram at Prepare time, bound to a backend once
// (plaintext constants encoded), and executed by Engine.ClassifyCtx in
// place of the generic interpreter whenever the engine configuration
// matches the assumptions baked in at build time (see eval.go's
// dispatch).
type Program struct {
	ops    []progOp
	hoists [][]int
	consts []constSpec
	numReg int
	result int

	// stageEnd[s] is one past the last op of pipeline stage s: stage s
	// is ops[stageEnd[s-1]:stageEnd[s]].
	stageEnd [stDone]int
	// producers[i] are the ops writing the registers op i reads, and
	// consumers[i] the ops reading a register op i writes, each listed
	// once. A hoist op produces its whole output register run.
	producers, consumers [][]int

	// Trace registers: the carrier operands whose limb counts the
	// per-stage trace reports, mirroring the generic path's boundaries.
	regQuery, regDecisions, regBranchVec, regLevelResult int

	// Build-time assumptions the dispatch gate checks against the
	// engine configuration.
	planned   bool // level-plan drops are baked in
	skipZero  bool // all-zero diagonals are skipped (plaintext models)
	encrypted bool

	// stageLimbs[stage] is the carrier limb count each pipeline stage
	// runs over under the baked-in level schedule (level+1), or 0 when
	// no schedule was compiled. The executor forwards it as an advisory
	// ring-dispatch hint at every stage transition.
	stageLimbs [stDone]int

	// Plaintext component values backing the bind-time constants
	// (plaintext models only; nil entries where unused).
	threshVals [][]uint64
	maskVals   [][]uint64

	bound   []he.Operand // staged constants, set by bind
	scratch sync.Pool
}

// progInputs is everything buildProgram needs, assembled from freshly
// prepared operands (PrepareWithPlan).
type progInputs struct {
	meta      Meta
	plan      *StageLevels // nil = no scheduled drops
	encrypted bool
	slots     int
	planes    int
	reshuffle diagShape
	levels    []diagShape
	// Plaintext model components (nil when encrypted): the replicated
	// threshold planes and block-padded masks, exactly as staged.
	threshVals [][]uint64
	maskVals   [][]uint64
}

// diagShape is the structural skeleton of a staged diagonal matrix: the
// BSGS split and the plaintext-known zero diagonals.
type diagShape struct {
	period, baby, giant int
	zero                []bool // per pre-rotated diagonal index
}

// shapeOf extracts the skeleton from staged diagonals; ok is false for
// non-BSGS layouts (old artifacts), which the specializer does not
// cover.
func diagShapeOf(d *matrix.Diagonals) (diagShape, bool) {
	if !d.IsBSGS() {
		return diagShape{}, false
	}
	return diagShape{period: d.Period, baby: d.Baby, giant: d.Giant, zero: d.BsgsZero}, true
}

// progBuilder accumulates ops and constants while walking the pipeline
// symbolically.
type progBuilder struct {
	p       *Program
	constIx map[constSpec]int
}

func (bl *progBuilder) emit(code opCode, a, b, imm, imm2 int) int {
	dst := bl.p.numReg
	bl.p.numReg++
	bl.p.ops = append(bl.p.ops, progOp{Code: code, Dst: dst, A: a, B: b, Imm: imm, Imm2: imm2})
	return dst
}

// constReg returns the register of a bind-time constant, deduplicated.
// Loads are free at run time (a register alias), so each constant is
// loaded once, where it first appears.
func (bl *progBuilder) constReg(spec constSpec) int {
	if r, ok := bl.constIx[spec]; ok {
		return r
	}
	idx := len(bl.p.consts)
	bl.p.consts = append(bl.p.consts, spec)
	r := bl.emit(opConst, 0, 0, idx, 0)
	bl.constIx[spec] = r
	return r
}

// drop emits a scheduled level drop when the program is planned.
func (bl *progBuilder) drop(r, level int) int {
	if bl.p.planned && level >= 0 {
		return bl.emit(opDrop, r, 0, level, 0)
	}
	return r
}

// buildProgram compiles the pipeline into a Program, or returns nil when
// the model's staging falls outside the specializer's coverage (non-BSGS
// layouts, empty stages); the engine then keeps the generic interpreter.
func buildProgram(in progInputs) *Program {
	if in.planes == 0 || len(in.levels) == 0 || in.reshuffle.period == 0 {
		return nil
	}
	baby := in.levels[0].baby
	for _, sh := range in.levels {
		if sh.baby != baby || sh.period != in.levels[0].period {
			return nil
		}
	}
	skipZero := !in.encrypted
	// Degenerate stagings (an entirely skippable matrix) take plaintext
	// shortcut paths in the generic kernels; leave them there.
	if skipZero {
		if allZero(in.reshuffle.zero) {
			return nil
		}
		for _, sh := range in.levels {
			if allZero(sh.zero) {
				return nil
			}
		}
	}
	p := &Program{
		planned:    in.plan != nil,
		skipZero:   skipZero,
		encrypted:  in.encrypted,
		threshVals: in.threshVals,
		maskVals:   in.maskVals,
	}
	if in.plan != nil {
		p.stageLimbs[stCompare] = in.plan.Compare + 1
		p.stageLimbs[stReshuffle] = in.plan.Reshuffle + 1
		p.stageLimbs[stLevels] = in.plan.Level + 1
		p.stageLimbs[stAccumulate] = in.plan.Accumulate + 1
	}
	bl := &progBuilder{p: p, constIx: map[constSpec]int{}}
	L := in.plan

	// ---- Stage 1: compare -------------------------------------------
	// Preamble: query planes (dropped to the compare entry), shared
	// constants. Loads are register aliases; only the drops cost work.
	nPlanes := in.planes
	q := make([]int, nPlanes)
	ones := -1
	for j := 0; j < nPlanes; j++ {
		q[j] = bl.emit(opQuery, 0, 0, j, 0)
		if L != nil {
			q[j] = bl.drop(q[j], L.Compare)
		}
	}
	if in.encrypted {
		ones = bl.constReg(constSpec{Kind: ckOnes})
	}
	p.regQuery = q[0]

	// Per-plane eq/gt terms.
	eq := make([]int, nPlanes)
	gt := make([]int, nPlanes)
	for j := 0; j < nPlanes; j++ {
		if in.encrypted {
			th := bl.emit(opThresh, 0, 0, j, 0)
			prod := bl.emit(opMul, q[j], th, 0, 0)
			sum := bl.emit(opAdd, q[j], th, 0, 0)
			twice := bl.emit(opAdd, prod, prod, 0, 0)
			x := bl.emit(opSub, sum, twice, 0, 0)
			neg := bl.emit(opNeg, x, 0, 0, 0)
			eq[j] = bl.emit(opAdd, neg, ones, 0, 0)
			gt[j] = bl.emit(opSub, q[j], prod, 0, 0)
		} else {
			coef := bl.constReg(constSpec{Kind: ckThreshCoef, Index: j})
			not := bl.constReg(constSpec{Kind: ckThreshNot, Index: j})
			scaled := bl.emit(opMul, q[j], coef, 0, 0)
			eq[j] = bl.emit(opAdd, scaled, not, 0, 0)
			gt[j] = bl.emit(opMul, q[j], not, 0, 0)
		}
	}

	// Sklansky prefix products over eq, with the per-round level drops
	// of the generic schedule.
	incl := make([]int, nPlanes)
	copy(incl, eq)
	round := 0
	for span := 1; span < nPlanes; span <<= 1 {
		for blockStart := 0; blockStart < nPlanes; blockStart += 2 * span {
			pivot := blockStart + span - 1
			if pivot >= nPlanes {
				break
			}
			for i := pivot + 1; i <= pivot+span && i < nPlanes; i++ {
				incl[i] = bl.emit(opMul, incl[i], incl[pivot], 0, 0)
			}
		}
		if L != nil && round < len(L.CompareRounds) {
			for i := range incl {
				incl[i] = bl.drop(incl[i], L.CompareRounds[round])
			}
		}
		round++
	}

	// gt = Σ_j gt_j · pre_j with lazy products and one relinearization.
	// pre_0 = 1, so the j=0 term is gt_0 itself.
	terms := make([]int, nPlanes)
	for j := 1; j < nPlanes; j++ {
		terms[j] = bl.emit(opMulLazy, gt[j], incl[j-1], 0, 0)
	}
	decisions := gt[0]
	for j := 1; j < nPlanes; j++ {
		decisions = bl.emit(opAdd, decisions, terms[j], 0, 0)
	}
	if nPlanes > 1 {
		decisions = bl.emit(opRelin, decisions, 0, 0, 0)
	}
	if L != nil {
		decisions = bl.drop(decisions, L.Reshuffle)
	}
	p.regDecisions = decisions
	bl.endStage(stCompare)

	// ---- Stage 2: reshuffle -----------------------------------------
	branch, ok := bl.matVec(in.reshuffle, decisions, -1, skipZero)
	if !ok {
		return nil
	}
	for pw := in.meta.BPad; pw < in.meta.BatchBlock(); pw <<= 1 {
		rot := bl.emit(opRot, branch, 0, -pw, 0)
		branch = bl.emit(opAdd, branch, rot, 0, 0)
	}
	if L != nil {
		branch = bl.drop(branch, L.Level)
	}
	p.regBranchVec = branch
	bl.endStage(stReshuffle)

	// ---- Stage 3: levels --------------------------------------------
	// One shared set of baby rotations feeds every level product; under
	// skipZero only the union of steps some level actually reads is
	// computed (the generic path computes all of them).
	needed := make([]bool, baby)
	needed[0] = true
	for _, sh := range in.levels {
		for i := 0; i < sh.period; i++ {
			if !(skipZero && sh.zero[i]) {
				needed[i%sh.baby] = true
			}
		}
	}
	rots := bl.hoistRots(branch, needed)

	lvlGroups := make([][]int, len(in.levels))
	for l, sh := range in.levels {
		lvlGroups[l] = bl.matVecGroups(sh, rots, l, skipZero)
	}
	lvlRes := make([]int, len(in.levels))
	for l := range in.levels {
		lvl := bl.mergeGroups(lvlGroups[l])
		if in.encrypted {
			mask := bl.emit(opMask, 0, 0, l, 0)
			prod := bl.emit(opMul, lvl, mask, 0, 0)
			sum := bl.emit(opAdd, lvl, mask, 0, 0)
			twice := bl.emit(opAdd, prod, prod, 0, 0)
			lvl = bl.emit(opSub, sum, twice, 0, 0)
		} else if !allZero(in.maskVals[l]) {
			coef := bl.constReg(constSpec{Kind: ckMaskCoef, Index: l})
			add := bl.constReg(constSpec{Kind: ckMaskAdd, Index: l})
			scaled := bl.emit(opMul, lvl, coef, 0, 0)
			lvl = bl.emit(opAdd, scaled, add, 0, 0)
		}
		// An all-zero plaintext mask XORs to the identity: alias.
		if L != nil {
			lvl = bl.drop(lvl, L.Accumulate)
		}
		lvlRes[l] = lvl
	}
	p.regLevelResult = lvlRes[0]
	bl.endStage(stLevels)

	// ---- Stage 4: accumulate ----------------------------------------
	ops := lvlRes
	for len(ops) > 1 {
		next := make([]int, 0, (len(ops)+1)/2)
		for i := 0; i+1 < len(ops); i += 2 {
			next = append(next, bl.emit(opMul, ops[i], ops[i+1], 0, 0))
		}
		if len(ops)%2 == 1 {
			next = append(next, ops[len(ops)-1])
		}
		ops = next
	}
	res := ops[0]
	if L != nil {
		res = bl.drop(res, L.Final)
	}
	p.result = res
	bl.endStage(stAccumulate)

	p.eliminateDeadOps()
	p.link()
	p.scratch.New = func() any {
		s := make([]he.Operand, p.numReg)
		return &s
	}
	return p
}

// endStage closes stage s after the ops emitted so far (ops are emitted
// in stage order).
func (bl *progBuilder) endStage(s int) { bl.p.stageEnd[s] = len(bl.p.ops) }

// hoistRots emits the hoisted rotations for the needed baby steps and
// returns one register per baby index (index 0 aliases the source).
func (bl *progBuilder) hoistRots(src int, needed []bool) []int {
	rots := make([]int, len(needed))
	rots[0] = src
	var steps []int
	for j := 1; j < len(needed); j++ {
		if needed[j] {
			steps = append(steps, j)
		}
	}
	if len(steps) > 0 {
		bl.p.hoists = append(bl.p.hoists, steps)
		dst := bl.p.numReg
		bl.p.numReg += len(steps)
		bl.p.ops = append(bl.p.ops, progOp{Code: opHoist, Dst: dst, A: src, Imm: len(bl.p.hoists) - 1})
		for i, s := range steps {
			rots[s] = dst + i
		}
	}
	return rots
}

// matVecGroups emits the per-giant-group inner products of one BSGS
// matrix-vector product, returning the group result registers (-1 for
// skipped groups).
func (bl *progBuilder) matVecGroups(sh diagShape, rots []int, mat int, skipZero bool) []int {
	groups := make([]int, sh.giant)
	for g := 0; g < sh.giant; g++ {
		acc := -1
		for j := 0; j < sh.baby; j++ {
			i := g*sh.baby + j
			if skipZero && sh.zero[i] {
				continue
			}
			term := bl.emit(opMulDiag, rots[j], 0, mat, i)
			if acc < 0 {
				acc = term
			} else {
				acc = bl.emit(opAdd, acc, term, 0, 0)
			}
		}
		if acc >= 0 {
			acc = bl.emit(opRelin, acc, 0, 0, 0)
			if g > 0 {
				acc = bl.emit(opRot, acc, 0, g*sh.baby, 0)
			}
		}
		groups[g] = acc
	}
	return groups
}

// mergeGroups sums group results in index order (the deterministic merge
// of the generic kernel).
func (bl *progBuilder) mergeGroups(groups []int) int {
	acc := -1
	for _, g := range groups {
		if g < 0 {
			continue
		}
		if acc < 0 {
			acc = g
		} else {
			acc = bl.emit(opAdd, acc, g, 0, 0)
		}
	}
	return acc
}

// matVec emits a full BSGS matrix-vector product: hoisted baby
// rotations, group products, index-order merge. ok is false when every
// diagonal is skippable (the generic path's plaintext-zeros shortcut;
// unsupported here).
func (bl *progBuilder) matVec(sh diagShape, vec, mat int, skipZero bool) (int, bool) {
	needed := make([]bool, sh.baby)
	needed[0] = true
	anyDiag := false
	for i := 0; i < sh.period; i++ {
		if !(skipZero && sh.zero[i]) {
			needed[i%sh.baby] = true
			anyDiag = true
		}
	}
	if !anyDiag {
		return 0, false
	}
	rots := bl.hoistRots(vec, needed)
	return bl.mergeGroups(bl.matVecGroups(sh, rots, mat, skipZero)), true
}

// eliminateDeadOps removes ops whose results never reach the program
// result (or a trace register): with the gt sum reading only the first
// p−1 inclusive prefixes, the last bit plane's Sklansky chain and eq
// decomposition are dead, along with their scheduled drops.
func (p *Program) eliminateDeadOps() {
	live := make([]bool, p.numReg)
	live[p.result] = true
	live[p.regQuery] = true
	live[p.regDecisions] = true
	live[p.regBranchVec] = true
	live[p.regLevelResult] = true
	keep := make([]bool, len(p.ops))
	for i := len(p.ops) - 1; i >= 0; i-- {
		op := p.ops[i]
		keep[i] = slices.Contains(live[op.Dst:op.Dst+p.width(op)], true)
		if keep[i] {
			for _, r := range op.reads() {
				live[r] = true
			}
		}
	}
	// Deletions preserve order, so each stage stays contiguous: its end
	// moves down by the ops deleted before it.
	ops := p.ops[:0]
	s := 0
	for i, op := range p.ops {
		for s < stDone && p.stageEnd[s] == i {
			p.stageEnd[s] = len(ops)
			s++
		}
		if keep[i] {
			ops = append(ops, op)
		}
	}
	for ; s < stDone; s++ {
		p.stageEnd[s] = len(ops)
	}
	p.ops = ops
}

// width is the number of registers op writes (a hoist writes one per
// step).
func (p *Program) width(op progOp) int {
	if op.Code == opHoist {
		return len(p.hoists[op.Imm])
	}
	return 1
}

// reads returns the registers op reads.
func (op progOp) reads() []int {
	switch op.Code {
	case opAdd, opSub, opMul, opMulLazy:
		return []int{op.A, op.B}
	case opMulDiag, opRelin, opNeg, opRot, opHoist, opDrop:
		return []int{op.A}
	}
	return nil
}

// link records the dependency graph the executor schedules: each op's
// producers and consumers.
func (p *Program) link() {
	writer := make([]int, p.numReg)
	for i, op := range p.ops {
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			writer[r] = i
		}
	}
	p.producers = make([][]int, len(p.ops))
	p.consumers = make([][]int, len(p.ops))
	for i, op := range p.ops {
		for _, r := range op.reads() {
			w := writer[r]
			if !slices.Contains(p.producers[i], w) {
				p.producers[i] = append(p.producers[i], w)
				p.consumers[w] = append(p.consumers[w], i)
			}
		}
	}
}

// bind stages the program's plaintext constants on the backend —
// encoded once here instead of on every Classify call.
func (p *Program) bind(b he.Backend) error {
	t := b.PlainModulus()
	p.bound = make([]he.Operand, len(p.consts))
	for i, spec := range p.consts {
		vals := make([]uint64, b.Slots())
		switch spec.Kind {
		case ckOnes:
			for j := range vals {
				vals[j] = 1
			}
		case ckThreshCoef:
			for j, m := range p.threshVals[spec.Index] {
				vals[j] = (2*(m%t) + t - 1) % t
			}
		case ckThreshNot:
			for j, m := range p.threshVals[spec.Index] {
				vals[j] = (1 + t - m%t) % t
			}
		case ckMaskCoef:
			for j, m := range p.maskVals[spec.Index] {
				vals[j] = (1 + t - (2*m)%t) % t
			}
		case ckMaskAdd:
			for j, m := range p.maskVals[spec.Index] {
				vals[j] = m % t
			}
		}
		op, err := he.NewPlain(b, vals)
		if err != nil {
			return err
		}
		p.bound[i] = op
	}
	return nil
}

func allZero[T uint64 | bool](vals []T) bool {
	var zero T
	for _, v := range vals {
		if v != zero {
			return false
		}
	}
	return true
}

package core

import (
	"context"
	"fmt"
	"time"

	"copse/internal/he"
	"copse/internal/matrix"
	"copse/internal/seccomp"
)

// ModelOperands is a compiled model loaded onto a backend: every
// component is an operand, either encrypted (Maurice keeps the model
// secret from Sally) or plaintext (Maurice *is* Sally, Figure 9's fast
// configuration).
type ModelOperands struct {
	Meta       Meta
	Thresholds []he.Operand // p bit planes, slot-periodic with period QPad
	Reshuffle  *matrix.Diagonals
	Levels     []*matrix.Diagonals
	Masks      []he.Operand
	Encrypted  bool
	// Plan is the scenario-resolved level schedule the operands were
	// staged at (thresholds at Plan.Compare, reshuffle diagonals at
	// Plan.Reshuffle, and so on); nil means reactive staging at the top
	// of the chain, and the engine then skips its boundary drops.
	Plan *StageLevels
	// Program is the specialized op program compiled from the artifact
	// at Prepare time (DESIGN.md §13); nil when the model's staging
	// falls outside the specializer's coverage, in which case the
	// engine keeps the generic interpreter.
	Program *Program
}

// Prepare loads c onto backend b. With encrypt=true all model components
// are encrypted; otherwise they are encoded plaintexts. Operands are
// staged at the compiled level schedule when the model carries one; use
// PrepareWithPlan to override (nil = reactive).
func Prepare(b he.Backend, c *Compiled, encrypt bool) (*ModelOperands, error) {
	return PrepareWithPlan(b, c, encrypt, c.Meta.LevelPlan)
}

// PrepareWithPlan is Prepare under an explicit level schedule: every
// model component is produced directly at the level its pipeline stage
// executes at — encrypted components via leveled encryption, plaintext
// components via eager pre-lifting — so no per-query work remains to put
// operands on schedule. A nil plan stages reactively at the chain top
// (the pre-level-scheduling behaviour, and the -nolevelplan ablation).
func PrepareWithPlan(b he.Backend, c *Compiled, encrypt bool, plan *LevelPlan) (*ModelOperands, error) {
	if c.Meta.Slots != b.Slots() {
		return nil, fmt.Errorf("core: model staged for %d slots but backend has %d", c.Meta.Slots, b.Slots())
	}
	m := &ModelOperands{Meta: c.Meta, Encrypted: encrypt}
	level := func(sel func(StageLevels) int) int { return -1 }
	// Queries are packed against this meta (PrepareQueryBatch reads its
	// QueryLevel), so the staged meta must advertise exactly the schedule
	// the operands follow — the override plan, or none.
	m.Meta.LevelPlan = plan
	if plan != nil {
		stage := plan.For(encrypt)
		m.Plan = &stage
		level = func(sel func(StageLevels) int) int { return sel(stage) }
	}

	// Thresholds stay fully periodic: every block of the batched layout
	// reads the same QPad-periodic plane (BatchBlock is a multiple of
	// QPad), and the single-query layout is the one-block special case.
	for _, plane := range c.ThresholdBits {
		periodic := replicatePlain(plane, c.Meta.QPad, b.Slots())
		op, err := makeOperand(b, periodic, encrypt, level(func(s StageLevels) int { return s.Compare }))
		if err != nil {
			return nil, err
		}
		m.Thresholds = append(m.Thresholds, op)
	}

	// Stage each matrix for the kernel the compiler planned: pre-rotated
	// BSGS diagonals when a split was staged, naive diagonals otherwise
	// (old artifacts). Diagonals are replicated into every BatchBlock-wide
	// slot block so the kernels evaluate one independent product per
	// packed query (DESIGN.md §7); with batch capacity 1 the block is the
	// whole ciphertext and this is the original layout.
	span := c.Meta.BatchBlock()
	prep := func(mtx *matrix.Bool, period, at int) (*matrix.Diagonals, error) {
		if baby, giant, ok := c.Meta.BSGSFor(period); c.Meta.UseBSGS && ok {
			return matrix.PrepareDiagonalsBSGSSpanAt(b, mtx, period, baby, giant, span, encrypt, at)
		}
		return matrix.PrepareDiagonalsSpanAt(b, mtx, period, span, encrypt, at)
	}
	var err error
	m.Reshuffle, err = prep(c.Reshuffle, c.Meta.QPad, level(func(s StageLevels) int { return s.Reshuffle }))
	if err != nil {
		return nil, err
	}
	lvlAt := level(func(s StageLevels) int { return s.Level })
	for _, lm := range c.Levels {
		d, err := prep(lm, c.Meta.BPad, lvlAt)
		if err != nil {
			return nil, err
		}
		m.Levels = append(m.Levels, d)
	}
	// Masks are XORed onto the level products after their
	// relinearization, which drops one prime: stage them there, so the
	// XOR meets no level mismatch to align.
	maskAt := level(func(s StageLevels) int { return max(s.Level-1, 0) })
	var maskVals [][]uint64
	for _, mask := range c.Masks {
		padded := make([]uint64, b.Slots())
		for base := 0; base < len(padded); base += span {
			copy(padded[base:base+len(mask)], mask)
		}
		op, err := makeOperand(b, padded, encrypt, maskAt)
		if err != nil {
			return nil, err
		}
		m.Masks = append(m.Masks, op)
		maskVals = append(maskVals, padded)
	}

	// Compile the specialized op program from the staged shapes. A nil
	// program (coverage gap: naive-diagonal stagings from old artifacts,
	// degenerate matrices) is not an error — the engine falls back to
	// the generic interpreter.
	if err := m.buildSpecialized(b, c, encrypt, maskVals); err != nil {
		return nil, err
	}
	return m, nil
}

// buildSpecialized compiles and binds the op program for freshly
// prepared operands.
func (m *ModelOperands) buildSpecialized(b he.Backend, c *Compiled, encrypt bool, maskVals [][]uint64) error {
	in := progInputs{
		meta:      m.Meta,
		plan:      m.Plan,
		encrypted: encrypt,
		slots:     b.Slots(),
		planes:    len(c.ThresholdBits),
	}
	var ok bool
	if in.reshuffle, ok = diagShapeOf(m.Reshuffle); !ok {
		return nil
	}
	for _, d := range m.Levels {
		sh, lok := diagShapeOf(d)
		if !lok {
			return nil
		}
		in.levels = append(in.levels, sh)
	}
	if !encrypt {
		for _, plane := range c.ThresholdBits {
			in.threshVals = append(in.threshVals, replicatePlain(plane, c.Meta.QPad, b.Slots()))
		}
		in.maskVals = maskVals
	}
	p := buildProgram(in)
	if p == nil {
		return nil
	}
	if err := p.bind(b); err != nil {
		return fmt.Errorf("core: binding specialized program: %w", err)
	}
	m.Program = p
	return nil
}

func makeOperand(b he.Backend, vals []uint64, encrypt bool, level int) (he.Operand, error) {
	if encrypt {
		ct, err := he.EncryptAtLevel(b, vals, level)
		if err != nil {
			return he.Operand{}, err
		}
		return he.Cipher(ct), nil
	}
	return he.NewPlainAtLevel(b, vals, level)
}

// replicatePlain lays vals (logical width `period`, zero-padded) out
// periodically across all slots.
func replicatePlain(vals []uint64, period, slots int) []uint64 {
	out := make([]uint64, slots)
	for i := range out {
		if i%period < len(vals) {
			out[i] = vals[i%period]
		}
	}
	return out
}

// Engine runs Algorithm 1. The zero value is not usable; construct with
// a backend. An Engine holds no per-call state: Classify may be invoked
// from many goroutines concurrently over the same ModelOperands, as long
// as the backend honours the he.Backend concurrency contract (both
// shipped backends do).
type Engine struct {
	Backend he.Backend
	// Workers is the number of goroutines a classification runs on: the
	// op program's independent ops (or the generic interpreter's
	// per-stage loops) spread across them. 1 (or 0) means
	// single-threaded — the paper's sequential runs.
	Workers int
	// SkipZeroDiagonals enables the plaintext-model optimization of
	// skipping all-zero matrix diagonals. It is ignored for encrypted
	// models, where skipping would leak structure (§7.1).
	SkipZeroDiagonals bool
	// ReuseRotations hoists the rotations of the branch vector out of
	// the per-level matrix products, computing them once (a COPSE-Go
	// ablation; the paper's Table 1b counts them per level). It only
	// applies to the naive kernel: BSGS-staged models always share the
	// baby-step rotations across levels.
	ReuseRotations bool
	// DisableHoisting turns off hoisted key switching, issuing each
	// rotation independently — the ablation for the RotateHoisted fast
	// path. Default (false) hoists wherever rotations share a ciphertext.
	DisableHoisting bool
	// DisableLevelPlan ignores the staged level schedule and leaves
	// noise management fully reactive — the -nolevelplan ablation
	// (DESIGN.md §8). Operands staged reactively (ModelOperands.Plan ==
	// nil) imply it.
	DisableLevelPlan bool
	// DisableSpecialization skips the model's compiled op program and
	// runs the generic interpreter — the ablation baseline for the
	// specialized executor (`WithSpecialization(false)` / `copse-bench
	// -nospecialize`). Default (false) dispatches to the program
	// whenever the model carries one and the engine configuration
	// matches its build-time assumptions.
	DisableSpecialization bool
	// MeasureNoise records the decrypt-side measured noise budget of the
	// carrier ciphertext at every stage boundary in Trace.Noise — the
	// measured-margin complement of the planner's estimates (it grounds
	// the flat slack in core/levelplan.go against reality). Measurement
	// decrypts, so it needs the secret key and costs one decryption per
	// stage: a harness knob (copse-bench -leveljson), not a serving-path
	// default. Ignored on backends without noise (the clear reference).
	MeasureNoise bool
}

// Trace records the per-stage timing and operation counts that
// Figure 10's breakdowns report.
type Trace struct {
	Compare, Reshuffle, Levels, Accumulate time.Duration
	Total                                  time.Duration
	CompareOps, ReshuffleOps               he.OpCounts
	LevelOps, AccumulateOps                he.OpCounts
	// Shuffle is the optional result-shuffle pass (paper §7.2.2) the
	// serving layer runs after the engine when shuffling is enabled;
	// zero otherwise. Its time is included in Total.
	Shuffle    time.Duration
	ShuffleOps he.OpCounts
	// Limbs is the level plan's runtime footprint (zero-valued on
	// backends without a modulus chain).
	Limbs StageLimbs
	// Noise is the decrypt-side measured noise budget at each stage
	// boundary, filled only under Engine.MeasureNoise (all -1 otherwise,
	// and on backends without noise).
	Noise StageNoise
	// Executor names the classify path that ran: "generic" (the
	// structure-rederiving interpreter) or "program" (the specialized op
	// program).
	Executor string
}

// StageNoise records the measured remaining noise budget (bits) of the
// carrier ciphertext at the same boundaries StageLimbs reports limb
// counts for: the margin each stage actually leaves, versus the slack
// the planner's noise model reserves. -1 where not measured.
type StageNoise struct {
	// Query is the budget of the first query bit plane feeding compare.
	Query int
	// Decisions enters the reshuffle mat-vec.
	Decisions int
	// BranchVec enters the per-level mat-vecs.
	BranchVec int
	// LevelResult enters the accumulation product tree.
	LevelResult int
	// Result is the classification output (what decrypt sees).
	Result int
}

// StageLimbs records the active RNS limb count of the pipeline's
// carrier ciphertext entering each stage (after the boundary drop) and
// leaving the pipeline — the per-stage complement of OpCounts.LimbOps.
type StageLimbs struct {
	// Query is the limb count of the query bit planes feeding compare.
	Query int
	// Decisions enters the reshuffle mat-vec.
	Decisions int
	// BranchVec enters the per-level mat-vecs.
	BranchVec int
	// LevelResult enters the accumulation product tree.
	LevelResult int
	// Result is the classification output (what decrypt sees).
	Result int
}

// Classify evaluates the model on an encrypted query, returning the
// result operand (the N-hot leaf bitvector of §4.1.2) and a stage trace.
// It is ClassifyCtx without cancellation.
func (e *Engine) Classify(m *ModelOperands, q *Query) (he.Operand, *Trace, error) {
	return e.ClassifyCtx(context.Background(), m, q)
}

// ClassifyCtx evaluates the model on an encrypted query (or slot-packed
// query batch — the dataflow is identical), returning the result operand
// and a stage trace. The op program checks the context before every op,
// so a cancelled request stops mid-stage; the generic interpreter checks
// it between pipeline stages.
func (e *Engine) ClassifyCtx(ctx context.Context, m *ModelOperands, q *Query) (he.Operand, *Trace, error) {
	if len(q.Bits) != len(m.Thresholds) {
		return he.Operand{}, nil, fmt.Errorf("core: query has %d bit planes, model wants %d", len(q.Bits), len(m.Thresholds))
	}
	// A query packed for one model silently misclassifies on another
	// whose layout differs (a registry makes that an easy mistake), so
	// reject layout mismatches up front — the full packing layout, since
	// models can share QPad while splitting it into different
	// features×multiplicity shapes. Hand-built queries (zero stamps) are
	// trusted.
	if q.QPad != 0 && (q.NumFeatures != m.Meta.NumFeatures || q.K != m.Meta.K ||
		q.QPad != m.Meta.QPad || q.Block != m.Meta.BatchBlock()) {
		return he.Operand{}, nil, fmt.Errorf("core: query packed for layout features=%d K=%d q̂=%d block=%d, model wants features=%d K=%d q̂=%d block=%d (query prepared for a different model?)",
			q.NumFeatures, q.K, q.QPad, q.Block,
			m.Meta.NumFeatures, m.Meta.K, m.Meta.QPad, m.Meta.BatchBlock())
	}
	if err := ctx.Err(); err != nil {
		return he.Operand{}, nil, err
	}
	workers := max(e.Workers, 1)
	skipZero := e.SkipZeroDiagonals && !m.Encrypted
	// Dispatch to the specialized op program when the model carries one
	// and the engine configuration matches its build-time assumptions:
	// same zero-skipping mode, level plan neither half-applied nor
	// half-disabled, no per-stage noise measurement (it decrypts between
	// stages), hoisting on (the program bakes hoisted rotations in), and
	// a ciphertext query (the plaintext-query scenario takes shortcut
	// paths the program does not mirror).
	if p := m.Program; p != nil && !e.DisableSpecialization && !e.MeasureNoise && !e.DisableHoisting &&
		!(e.DisableLevelPlan && p.planned) && skipZero == p.skipZero && q.Bits[0].IsCipher() {
		return e.runProgram(ctx, m, q, p)
	}
	// The staged level schedule: each stage boundary proactively drops
	// the carrier ciphertext to the level the compiler assigned the next
	// stage, so the back half of the pipeline runs on a fraction of the
	// modulus chain (DESIGN.md §8). stage == nil (reactive staging, or
	// the ablation knob) skips every drop.
	stage := m.Plan
	if e.DisableLevelPlan {
		stage = nil
	}
	stageLevel := func(sel func(StageLevels) int) int {
		if stage == nil {
			return -1
		}
		return sel(*stage)
	}
	trace := &Trace{Executor: "generic", Noise: StageNoise{Query: -1, Decisions: -1, BranchVec: -1, LevelResult: -1, Result: -1}}
	// measureNoise reads the carrier's decrypt-side budget at a stage
	// boundary (the -leveljson margin corpus); -1 when not measuring.
	// Measurement decrypts, so its elapsed time is tracked and excluded
	// from Trace.Total — measured and unmeasured runs report comparable
	// totals (the per-stage windows already exclude it).
	var noiseOverhead time.Duration
	measureNoise := func(op he.Operand) int {
		if !e.MeasureNoise {
			return -1
		}
		mark := time.Now()
		defer func() { noiseOverhead += time.Since(mark) }()
		return he.NoiseBudgetOf(e.Backend, op)
	}
	start := time.Now()
	// The stage op counts in the trace come from a per-call counting
	// wrapper, not deltas of the shared backend counter: under the
	// concurrent serving mode another goroutine's pass would otherwise
	// leak into this trace.
	b := he.WithCounts(e.Backend)
	base := b.Counts()

	// Step 1: comparison — all decision nodes at once (§3.3). Query
	// planes normally arrive at the scheduled compare level already
	// (PrepareQueryBatch encrypts them there); the drop here covers
	// hand-built and reactively packed queries.
	bits := q.Bits
	if stage != nil {
		bits = make([]he.Operand, len(q.Bits))
		for i, op := range q.Bits {
			var err error
			bits[i], err = he.DropToLevel(b, op, stage.Compare)
			if err != nil {
				return he.Operand{}, nil, fmt.Errorf("core: query level drop: %w", err)
			}
		}
	}
	trace.Limbs.Query = he.OperandLimbs(b, bits[0])
	// The Sklansky rounds inside the comparison carry their own level
	// schedule (StageLevels.CompareRounds): the most expensive stage
	// sheds limbs between prefix rounds, not just at its boundary.
	var compareRounds []int
	if stage != nil {
		compareRounds = stage.CompareRounds
	}
	decisions, err := seccomp.CompareGTScheduled(b, bits, m.Thresholds, compareRounds)
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: comparison step: %w", err)
	}
	if decisions, err = he.DropToLevel(b, decisions, stageLevel(func(s StageLevels) int { return s.Reshuffle })); err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: reshuffle level drop: %w", err)
	}
	trace.Limbs.Decisions = he.OperandLimbs(b, decisions)
	trace.Compare = time.Since(start)
	snap := b.Counts()
	trace.CompareOps = snap.Minus(base)
	base = snap
	// Noise measurements decrypt, so they run outside the timing windows
	// (after each stage's duration is captured) to keep the -leveljson
	// stage medians comparable with unmeasured runs.
	trace.Noise.Query = measureNoise(bits[0])
	trace.Noise.Decisions = measureNoise(decisions)
	if err := ctx.Err(); err != nil {
		return he.Operand{}, nil, err
	}

	// Step 2: reshuffle into branch preorder and drop sentinels, then
	// restore the periodic layout for the level products — within each
	// query's own slot block, so packed queries never mix.
	mark := time.Now()
	var branchVec he.Operand
	if m.Reshuffle.IsBSGS() {
		branchVec, err = matrix.MatVecBSGS(b, m.Reshuffle, decisions, skipZero, workers, !e.DisableHoisting)
	} else {
		branchVec, err = matrix.MatVecParallel(b, m.Reshuffle, decisions, skipZero, workers)
	}
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: reshuffle step: %w", err)
	}
	branchVec, err = matrix.ReplicateWithin(b, branchVec, m.Meta.BPad, m.Meta.BatchBlock())
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: reshuffle replication: %w", err)
	}
	if branchVec, err = he.DropToLevel(b, branchVec, stageLevel(func(s StageLevels) int { return s.Level })); err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: level-stage drop: %w", err)
	}
	trace.Limbs.BranchVec = he.OperandLimbs(b, branchVec)
	trace.Reshuffle = time.Since(mark)
	snap = b.Counts()
	trace.ReshuffleOps = snap.Minus(base)
	base = snap
	trace.Noise.BranchVec = measureNoise(branchVec)
	if err := ctx.Err(); err != nil {
		return he.Operand{}, nil, err
	}

	// Step 3: level processing — every level independently (§3.3), each
	// a matrix product plus the mask XOR. With BSGS-staged levels the
	// baby-step rotations of the branch vector are computed once
	// (hoisted) and shared by every level product; only the per-group
	// giant-step rotations remain per level.
	mark = time.Now()
	bsgsLevels := len(m.Levels) > 0 && m.Levels[0].IsBSGS()
	var babyRots []he.Operand
	if bsgsLevels {
		babyRots, err = matrix.BabyRotations(b, branchVec, m.Levels[0].Baby, !e.DisableHoisting)
		if err != nil {
			return he.Operand{}, nil, fmt.Errorf("core: baby-step rotations: %w", err)
		}
	}
	var rotations []he.Operand
	if e.ReuseRotations && !bsgsLevels {
		rotations = make([]he.Operand, m.Meta.BPad)
		rotations[0] = branchVec
		err := matrix.ParallelFor(m.Meta.BPad-1, workers, func(i int) error {
			rot, err := he.Rotate(b, branchVec, i+1)
			if err != nil {
				return err
			}
			rotations[i+1] = rot
			return nil
		})
		if err != nil {
			return he.Operand{}, nil, fmt.Errorf("core: rotation hoisting: %w", err)
		}
	}
	lvlResults := make([]he.Operand, len(m.Levels))
	levelWorkers := 1
	diagWorkers := workers
	if len(m.Levels) > 1 && workers > 1 {
		levelWorkers = min(workers, len(m.Levels))
		diagWorkers = max(workers/levelWorkers, 1)
	}
	err = matrix.ParallelFor(len(m.Levels), levelWorkers, func(l int) error {
		var lvlDecisions he.Operand
		var err error
		switch {
		case bsgsLevels:
			lvlDecisions, err = matrix.MatVecBSGSWith(b, m.Levels[l], babyRots, skipZero, diagWorkers)
		case e.ReuseRotations:
			lvlDecisions, err = matVecWithRotations(b, m.Levels[l], rotations, skipZero)
		default:
			lvlDecisions, err = matrix.MatVecParallel(b, m.Levels[l], branchVec, skipZero, diagWorkers)
		}
		if err != nil {
			return err
		}
		res, err := he.Xor(b, lvlDecisions, m.Masks[l])
		if err != nil {
			return err
		}
		// Cool the level result down to the product tree's entry: the
		// tree's noise budget needs only a few limbs, and every tree
		// multiplication then tensors and key-switches over that
		// fraction of the chain.
		if res, err = he.DropToLevel(b, res, stageLevel(func(s StageLevels) int { return s.Accumulate })); err != nil {
			return err
		}
		lvlResults[l] = res
		return nil
	})
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: level processing: %w", err)
	}
	trace.Limbs.LevelResult = he.OperandLimbs(b, lvlResults[0])
	trace.Levels = time.Since(mark)
	snap = b.Counts()
	trace.LevelOps = snap.Minus(base)
	base = snap
	trace.Noise.LevelResult = measureNoise(lvlResults[0])
	if err := ctx.Err(); err != nil {
		return he.Operand{}, nil, err
	}

	// Step 4: accumulate all level vectors into the final label mask.
	mark = time.Now()
	labels, err := mulAllParallel(b, lvlResults, workers)
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: accumulation step: %w", err)
	}
	if labels, err = he.DropToLevel(b, labels, stageLevel(func(s StageLevels) int { return s.Final })); err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: final level drop: %w", err)
	}
	trace.Limbs.Result = he.OperandLimbs(b, labels)
	trace.Accumulate = time.Since(mark)
	snap = b.Counts()
	trace.AccumulateOps = snap.Minus(base)
	trace.Total = time.Since(start) - noiseOverhead
	trace.Noise.Result = measureNoise(labels)
	return labels, trace, nil
}

// matVecWithRotations is MatVec over pre-rotated copies of the vector.
func matVecWithRotations(b he.Backend, d *matrix.Diagonals, rotations []he.Operand, skipZero bool) (he.Operand, error) {
	var acc he.Operand
	accSet := false
	for i := 0; i < d.Period; i++ {
		if skipZero && d.Zero[i] {
			continue
		}
		term, err := he.MulLazy(b, d.Ops[i], rotations[i])
		if err != nil {
			return he.Operand{}, err
		}
		if !accSet {
			acc, accSet = term, true
			continue
		}
		acc, err = he.Add(b, acc, term)
		if err != nil {
			return he.Operand{}, err
		}
	}
	if !accSet {
		return he.NewPlain(b, make([]uint64, b.Slots()))
	}
	return he.Relinearize(b, acc)
}

// mulAllParallel is he.MulAll with each tree round's pair products
// computed concurrently.
func mulAllParallel(b he.Backend, ops []he.Operand, workers int) (he.Operand, error) {
	if len(ops) == 0 {
		return he.Operand{}, fmt.Errorf("core: no level results to accumulate")
	}
	for len(ops) > 1 {
		pairs := len(ops) / 2
		next := make([]he.Operand, pairs)
		err := matrix.ParallelFor(pairs, workers, func(i int) error {
			p, err := he.Mul(b, ops[2*i], ops[2*i+1])
			if err != nil {
				return err
			}
			next[i] = p
			return nil
		})
		if err != nil {
			return he.Operand{}, err
		}
		if len(ops)%2 == 1 {
			next = append(next, ops[len(ops)-1])
		}
		ops = next
	}
	return ops[0], nil
}

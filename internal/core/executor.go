package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"copse/internal/he"
	"copse/internal/matrix"
)

// passCtx is one execution of a Program: its register file and inputs,
// plus the open trace window of the running stage.
type passCtx struct {
	R []he.Operand

	b     *he.CountingBackend
	m     *ModelOperands
	q     *Query
	p     *Program
	trace *Trace
	base  he.OpCounts
	mark  time.Time
}

// runProgram executes the model's specialized op program and fills a
// trace with the same stage windows as the generic path.
func (e *Engine) runProgram(ctx context.Context, m *ModelOperands, q *Query, p *Program) (he.Operand, *Trace, error) {
	trace := &Trace{Executor: "program", Noise: StageNoise{Query: -1, Decisions: -1, BranchVec: -1, LevelResult: -1, Result: -1}}
	start := time.Now()
	b := he.WithCounts(e.Backend)
	regs := p.scratch.Get().(*[]he.Operand)
	// interpret returns only after every helper goroutine has, so no
	// op can still be touching the registers recycled here.
	defer func() {
		clear(*regs)
		p.scratch.Put(regs)
	}()
	x := &passCtx{R: *regs, b: b, m: m, q: q, p: p, trace: trace, base: b.Counts(), mark: start}
	if err := p.interpret(ctx, x, max(e.Workers, 1)); err != nil {
		return he.Operand{}, nil, fmt.Errorf("core: specialized executor: %w", err)
	}
	trace.Total = time.Since(start)
	return x.R[p.result], trace, nil
}

// interpret runs the program stage by stage on `workers` goroutines:
// the caller plus workers−1 helpers started for this pass. Within a
// stage an op starts as soon as the ops producing its inputs have
// finished; ready ops run lowest index first. Stage ends are barriers,
// so each stage's trace window and op counts cover exactly its own ops.
// The first error (a failed op, a recovered panic, or the context
// cancelled — checked before every op, so also at each stage's start)
// stops dispatch.
func (p *Program) interpret(ctx context.Context, x *passCtx, workers int) error {
	d := &dispatcher{p: p, x: x, ctx: ctx, pending: make([]int32, len(p.ops))}
	d.cond.L = &d.mu
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.work(false)
		}()
	}
	defer func() {
		d.mu.Lock()
		d.done = true
		d.cond.Broadcast()
		d.mu.Unlock()
		wg.Wait()
	}()
	lo := 0
	for s := stCompare; s < stDone; s++ {
		he.HintStageLimbs(x.b, p.stageLimbs[s])
		if err := d.runStage(lo, p.stageEnd[s]); err != nil {
			return err
		}
		x.closeStage(s)
		lo = p.stageEnd[s]
	}
	he.HintStageLimbs(x.b, 0)
	return nil
}

// dispatcher is the per-pass ready list shared by the caller and the
// helper goroutines.
type dispatcher struct {
	p   *Program
	x   *passCtx
	ctx context.Context

	mu      sync.Mutex
	cond    sync.Cond
	pending []int32 // unfinished same-stage producers, per op
	ready   []int   // ascending op indices whose inputs are all ready
	hi      int     // end of the running stage
	left    int     // ops of the running stage not yet finished
	err     error
	done    bool // the pass is over: helpers return
}

// runStage dispatches ops [lo, hi) and returns once all of them have
// finished or the first error.
func (d *dispatcher) runStage(lo, hi int) error {
	d.mu.Lock()
	d.hi, d.left = hi, hi-lo
	d.ready = d.ready[:0]
	for i := lo; i < hi; i++ {
		n := 0
		for _, pr := range d.p.producers[i] {
			if pr >= lo {
				n++
			}
		}
		d.pending[i] = int32(n)
		if n == 0 {
			d.ready = append(d.ready, i)
		}
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	d.work(true)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// work runs ready ops until the stage is over (the caller) or the pass
// is (helpers); either returns at the first error.
func (d *dispatcher) work(caller bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.err == nil && !d.done && !(caller && d.left == 0) {
		if len(d.ready) == 0 {
			d.cond.Wait()
			continue
		}
		i := d.ready[0]
		d.ready = d.ready[1:]
		d.mu.Unlock()
		err := d.ctx.Err()
		if err == nil {
			err = d.x.run(i)
		}
		d.mu.Lock()
		if err != nil {
			if d.err == nil {
				d.err = err
			}
			d.cond.Broadcast()
			continue
		}
		d.left--
		woke := d.left == 0
		for _, c := range d.p.consumers[i] {
			if c >= d.hi {
				continue // a later stage; the barrier covers it
			}
			if d.pending[c]--; d.pending[c] == 0 {
				at, _ := slices.BinarySearch(d.ready, c)
				d.ready = slices.Insert(d.ready, at, c)
				woke = true
			}
		}
		if woke {
			d.cond.Broadcast()
		}
	}
}

// run executes op i, converting a panic into a *matrix.PanicError (the
// serving layer's typed internal error).
func (x *passCtx) run(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &matrix.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return x.exec(x.p.ops[i])
}

// exec evaluates one op into its destination register(s).
func (x *passCtx) exec(op progOp) error {
	R := x.R
	var r he.Operand
	var err error
	switch op.Code {
	case opQuery:
		r = x.q.Bits[op.Imm]
	case opThresh:
		r = x.m.Thresholds[op.Imm]
	case opMask:
		r = x.m.Masks[op.Imm]
	case opConst:
		r = x.p.bound[op.Imm]
	case opAdd:
		r, err = he.Add(x.b, R[op.A], R[op.B])
	case opSub:
		// The builder only emits Sub and Neg on all-cipher paths.
		if !R[op.A].IsCipher() || !R[op.B].IsCipher() {
			return fmt.Errorf("core: specialized Sub on plaintext operand")
		}
		var ct he.Ciphertext
		ct, err = x.b.Sub(R[op.A].Ct, R[op.B].Ct)
		r = he.Cipher(ct)
	case opMul:
		r, err = he.Mul(x.b, R[op.A], R[op.B])
	case opMulLazy:
		r, err = he.MulLazy(x.b, R[op.A], R[op.B])
	case opMulDiag:
		// Imm −1 selects the reshuffle matrix, l ≥ 0 the level-l matrix;
		// Imm2 indexes the pre-rotated BSGS diagonal.
		d := x.m.Reshuffle
		if op.Imm >= 0 {
			d = x.m.Levels[op.Imm]
		}
		r, err = he.MulLazy(x.b, d.BsgsOps[op.Imm2], R[op.A])
	case opRelin:
		r, err = he.Relinearize(x.b, R[op.A])
	case opNeg:
		if !R[op.A].IsCipher() {
			return fmt.Errorf("core: specialized Neg on plaintext operand")
		}
		var ct he.Ciphertext
		ct, err = x.b.Neg(R[op.A].Ct)
		r = he.Cipher(ct)
	case opRot:
		r, err = he.Rotate(x.b, R[op.A], op.Imm)
	case opHoist:
		outs, err := he.RotateHoisted(x.b, R[op.A], x.p.hoists[op.Imm])
		if err != nil {
			return err
		}
		copy(R[op.Dst:op.Dst+len(outs)], outs)
		return nil
	case opDrop:
		r, err = he.DropToLevel(x.b, R[op.A], op.Imm)
	default:
		return fmt.Errorf("core: unknown op code %d", op.Code)
	}
	if err != nil {
		return err
	}
	R[op.Dst] = r
	return nil
}

// closeStage closes stage s's trace window: its duration, op counts and
// carrier limb count.
func (x *passCtx) closeStage(s int) {
	now := time.Now()
	counts := x.b.Counts()
	delta := counts.Minus(x.base)
	dur := now.Sub(x.mark)
	t, p, limbs := x.trace, x.p, func(r int) int { return he.OperandLimbs(x.b, x.R[r]) }
	switch s {
	case stCompare:
		t.Compare, t.CompareOps = dur, delta
		t.Limbs.Query, t.Limbs.Decisions = limbs(p.regQuery), limbs(p.regDecisions)
	case stReshuffle:
		t.Reshuffle, t.ReshuffleOps = dur, delta
		t.Limbs.BranchVec = limbs(p.regBranchVec)
	case stLevels:
		t.Levels, t.LevelOps = dur, delta
		t.Limbs.LevelResult = limbs(p.regLevelResult)
	case stAccumulate:
		t.Accumulate, t.AccumulateOps = dur, delta
		t.Limbs.Result = limbs(p.result)
	}
	x.base, x.mark = counts, now
}

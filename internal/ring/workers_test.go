package ring

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// testContexts returns two identical contexts (same primes, three
// special primes), one serial
// and one with an n-way worker pool attached. The caller must
// CloseWorkers on the parallel one.
func testContexts(t *testing.T, logN, levels, workers int) (serial, parallel *Context) {
	t.Helper()
	n := 1 << logN
	primes, err := GeneratePrimes(55, uint64(2*n)*65537, levels+3)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	serial, err = NewContextQP(logN, primes[:levels], primes[levels:], 65537)
	if err != nil {
		t.Fatalf("NewContextQP: %v", err)
	}
	parallel, err = NewContextQP(logN, primes[:levels], primes[levels:], 65537)
	if err != nil {
		t.Fatalf("NewContextQP: %v", err)
	}
	parallel.SetWorkers(NewWorkers(workers))
	return serial, parallel
}

func polysEqual(a, b *Poly) bool {
	if len(a.Coeffs) != len(b.Coeffs) || a.IsNTT != b.IsNTT {
		return false
	}
	for i := range a.Coeffs {
		for j := range a.Coeffs[i] {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// TestParallelOpsDeterministic asserts that every ring op produces
// bit-identical polynomials on the serial and the worker-pool path, at
// every level of the chain. Run under -race (the short CI suite covers
// it) this doubles as the data-race check for the pool.
func TestParallelOpsDeterministic(t *testing.T) {
	const levels = 6
	serial, par := testContexts(t, 11, levels, 4)
	defer par.CloseWorkers()

	for level := 0; level < levels; level++ {
		level := level
		t.Run(fmt.Sprintf("level=%d", level), func(t *testing.T) {
			smp := NewSeededSampler(serial, uint64(1000+level))
			a := smp.UniformPoly(level, false)
			b := smp.UniformPoly(level, false)
			c := smp.UniformPoly(level, false)

			type opCase struct {
				name string
				run  func(ctx *Context, a, b, c *Poly) *Poly
			}
			cases := []opCase{
				{"NTT", func(ctx *Context, a, b, c *Poly) *Poly {
					out := a.Copy()
					ctx.NTT(out)
					return out
				}},
				{"INTT", func(ctx *Context, a, b, c *Poly) *Poly {
					out := a.Copy()
					ctx.NTT(out)
					ctx.INTT(out)
					return out
				}},
				{"Add", func(ctx *Context, a, b, c *Poly) *Poly {
					out := ctx.NewPoly(level)
					ctx.Add(a, b, out)
					return out
				}},
				{"Sub", func(ctx *Context, a, b, c *Poly) *Poly {
					out := ctx.NewPoly(level)
					ctx.Sub(a, b, out)
					return out
				}},
				{"Neg", func(ctx *Context, a, b, c *Poly) *Poly {
					out := ctx.NewPoly(level)
					ctx.Neg(a, out)
					return out
				}},
				{"MulCoeffs", func(ctx *Context, a, b, c *Poly) *Poly {
					x, y := a.Copy(), b.Copy()
					ctx.NTT(x)
					ctx.NTT(y)
					out := ctx.NewPoly(level)
					ctx.MulCoeffs(x, y, out)
					return out
				}},
				{"MulCoeffsAdd", func(ctx *Context, a, b, c *Poly) *Poly {
					x, y := a.Copy(), b.Copy()
					ctx.NTT(x)
					ctx.NTT(y)
					out := c.Copy()
					out.IsNTT = true
					ctx.MulCoeffsAdd(x, y, out)
					return out
				}},
				{"MulScalar", func(ctx *Context, a, b, c *Poly) *Poly {
					out := ctx.NewPoly(level)
					ctx.MulScalar(a, 4242, out)
					return out
				}},
				{"AutomorphismNTT", func(ctx *Context, a, b, c *Poly) *Poly {
					x := a.Copy()
					ctx.NTT(x)
					out := ctx.NewPoly(level)
					ctx.AutomorphismNTT(x, 5, out)
					return out
				}},
				{"ModUp+KeySwitchDot+ModDown", func(ctx *Context, a, b, c *Poly) *Poly {
					x := a.Copy()
					ctx.NTT(x)
					digits := ctx.ModUp(x)
					key := make([]*Poly, len(digits))
					keyS := make([]*PolyShoup, len(digits))
					for j := range key {
						key[j] = NewSeededSampler(ctx, uint64(j)).UniformPolyQP(level, true)
						keyS[j] = ctx.ShoupPolyQP(key[j], level)
					}
					acc0, acc1 := ctx.NewPolyQP(level), ctx.NewPolyQP(level)
					ctx.KeySwitchDot(digits, 5, key, key, keyS, keyS, acc0, acc1)
					out := ctx.NewPoly(level)
					ctx.ModDown(acc0, nil, out)
					// Fold every digit and the second accumulator in too,
					// so a divergence anywhere shows.
					for _, d := range digits {
						out.Coeffs = append(out.Coeffs, d.Coeffs...)
					}
					out.Coeffs = append(out.Coeffs, acc1.Coeffs...)
					return out
				}},
			}
			if level >= 1 {
				cases = append(cases, opCase{"ModSwitchDown", func(ctx *Context, a, b, c *Poly) *Poly {
					out := a.Copy()
					ctx.NTT(out)
					ctx.ModSwitchDown(out)
					return out
				}})
			}
			// Sweep the pointwise cutoff across its extremes: 1 forces
			// every multi-limb pointwise op onto the pool, 1<<30 pins
			// them all serial, and the default exercises the shipped
			// threshold. Bit-identical results at every setting.
			for _, cutoff := range []int{1, DefaultPointwiseParCutoff, 1 << 30} {
				par.SetPointwiseParCutoff(cutoff)
				for _, tc := range cases {
					got := tc.run(par, a.Copy(), b.Copy(), c.Copy())
					want := tc.run(serial, a.Copy(), b.Copy(), c.Copy())
					if !polysEqual(got, want) {
						t.Errorf("%s (cutoff %d): parallel result differs from serial", tc.name, cutoff)
					}
				}
			}
			par.SetPointwiseParCutoff(0) // restore the default
		})
	}
}

// TestPointwiseCutoffTunable pins the cutoff knob's semantics: the
// shipped default, explicit settings, the reset-to-default rule, and
// retunes racing live op traffic (the -race suite runs this).
func TestPointwiseCutoffTunable(t *testing.T) {
	_, par := testContexts(t, 9, 3, 2)
	defer par.CloseWorkers()
	if got := par.PointwiseParCutoff(); got != DefaultPointwiseParCutoff {
		t.Errorf("default cutoff %d, want %d", got, DefaultPointwiseParCutoff)
	}
	par.SetPointwiseParCutoff(64)
	if got := par.PointwiseParCutoff(); got != 64 {
		t.Errorf("cutoff %d after Set(64)", got)
	}
	par.SetPointwiseParCutoff(-1)
	if got := par.PointwiseParCutoff(); got != DefaultPointwiseParCutoff {
		t.Errorf("cutoff %d after reset, want default", got)
	}

	smp := NewSeededSampler(par, 7)
	a := smp.UniformPoly(2, false)
	b := smp.UniformPoly(2, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			par.SetPointwiseParCutoff(1 + (i%2)*(1<<30))
		}
	}()
	want := par.NewPoly(2)
	addRowAll := func(out *Poly) {
		for i := range out.Coeffs {
			addRow(tierScalar, par.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
		}
	}
	addRowAll(want)
	for i := 0; i < 200; i++ {
		out := par.NewPoly(2)
		par.Add(a, b, out)
		if !polysEqual(out, want) {
			t.Fatalf("iteration %d: Add result changed under a racing cutoff retune", i)
		}
	}
	<-done
}

// TestFusedNTTMatchesGeneric pins the fused radix-4-style kernels to the
// reference layer-at-a-time sweeps across transform sizes.
func TestFusedNTTMatchesGeneric(t *testing.T) {
	for _, logN := range []int{4, 5, 6, 8, 11, 13} {
		n := 1 << logN
		primes, err := GeneratePrimes(55, uint64(2*n), 1)
		if err != nil {
			t.Fatalf("GeneratePrimes(logN=%d): %v", logN, err)
		}
		m, err := NewModulus(primes[0], n)
		if err != nil {
			t.Fatalf("NewModulus(logN=%d): %v", logN, err)
		}
		a := make([]uint64, n)
		for j := range a {
			a[j] = (uint64(j)*0x9e3779b97f4a7c15 + 12345) % m.Q
		}
		fused := append([]uint64(nil), a...)
		generic := append([]uint64(nil), a...)
		m.NTT(fused)
		m.NTTGeneric(generic)
		for j := range fused {
			if fused[j] != generic[j] {
				t.Fatalf("logN=%d: fused NTT differs from generic at %d", logN, j)
			}
		}
		m.INTT(fused)
		m.INTTGeneric(generic)
		for j := range fused {
			if fused[j] != generic[j] {
				t.Fatalf("logN=%d: fused INTT differs from generic at %d", logN, j)
			}
			if fused[j] != a[j] {
				t.Fatalf("logN=%d: NTT/INTT roundtrip broke at %d", logN, j)
			}
		}
	}
}

// TestWorkersRunCoverage checks the span partition covers every index
// exactly once for awkward m/worker combinations.
func TestWorkersRunCoverage(t *testing.T) {
	ws := NewWorkers(3)
	defer ws.Close()
	for _, m := range []int{1, 2, 3, 4, 7, 16, 31} {
		hits := make([]int32, m)
		done := make(chan struct{})
		go func() {
			ws.Run(m, func(i int) { hits[i]++ })
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Run(%d) deadlocked", m)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("Run(%d): index %d executed %d times", m, i, h)
			}
		}
	}
}

// TestWorkersCloseDuringRun: Close must serialize against in-flight
// Runs (no send-on-closed-channel panic) and later Runs must fall back
// to the serial loop.
func TestWorkersCloseDuringRun(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ws := NewWorkers(4)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for r := 0; r < 50; r++ {
				ws.Run(8, func(int) {})
			}
		}()
		ws.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run after Close deadlocked")
		}
		// Post-close Runs still execute every index, serially.
		hits := make([]int32, 5)
		ws.Run(5, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("post-close Run: index %d executed %d times", i, h)
			}
		}
	}
}

// TestIntraOpPerfSmoke is the CI perf gate for the intra-op pool: at a
// full-chain LogN≥13 transform, the pool-attached NTT path must not be
// slower than the serial path (within tolerance — on a single-core
// runner the pool short-circuits to the serial loop and the two paths
// should tie). Enabled with COPSE_PERF_SMOKE=1, like the level-plan
// gate.
func TestIntraOpPerfSmoke(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") == "" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the perf gate")
	}
	const logN, levels = 13, 8
	serial, par := testContexts(t, logN, levels, runtime.NumCPU())
	defer par.CloseWorkers()
	smp := NewSeededSampler(serial, 7)
	src := smp.UniformPoly(levels-1, false)

	measure := func(ctx *Context) time.Duration {
		const reps = 7
		times := make([]time.Duration, reps)
		for r := 0; r < reps; r++ {
			p := src.Copy()
			start := time.Now()
			ctx.NTT(p)
			ctx.INTT(p)
			times[r] = time.Since(start)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[reps/2]
	}
	measure(serial) // warm up
	ts := measure(serial)
	tp := measure(par)
	t.Logf("logN=%d limbs=%d: serial %v, parallel(%d workers) %v", logN, levels, ts, par.WorkerCount(), tp)
	if float64(tp) > 1.25*float64(ts) {
		t.Errorf("parallel NTT path slower than serial: %v vs %v (workers=%d, cpus=%d)",
			tp, ts, par.WorkerCount(), runtime.NumCPU())
	}
}

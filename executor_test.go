package copse_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copse"
	"copse/internal/he"
	"copse/internal/he/heclear"
)

// hookBackend is the clear backend with a hook called before every
// ciphertext op; the hook may panic, or return an error the op then
// returns. A nil hook passes every op through. active counts the hook
// calls in progress.
type hookBackend struct {
	*heclear.Backend
	hook   atomic.Pointer[func() error]
	active atomic.Int64
}

func (h *hookBackend) before() error {
	f := h.hook.Load()
	if f == nil {
		return nil
	}
	h.active.Add(1)
	defer h.active.Add(-1)
	return (*f)()
}

func (h *hookBackend) Add(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Add(a, b)
}

func (h *hookBackend) Sub(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Sub(a, b)
}

func (h *hookBackend) Neg(a he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Neg(a)
}

func (h *hookBackend) AddPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.AddPlain(a, p)
}

func (h *hookBackend) MulPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.MulPlain(a, p)
}

func (h *hookBackend) Mul(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Mul(a, b)
}

func (h *hookBackend) MulLazy(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.MulLazy(a, b)
}

func (h *hookBackend) Relinearize(a he.Ciphertext) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Relinearize(a)
}

func (h *hookBackend) Rotate(a he.Ciphertext, k int) (he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.Rotate(a, k)
}

func (h *hookBackend) RotateHoisted(a he.Ciphertext, steps []int) ([]he.Ciphertext, error) {
	if err := h.before(); err != nil {
		return nil, err
	}
	return h.Backend.RotateHoisted(a, steps)
}

// executorService registers the Figure 1 model on a hooked clear
// backend with the given worker count and packs one query; the hook is
// left for the test to set.
func executorService(t *testing.T, workers int) (*copse.Service, *hookBackend, *copse.Query) {
	t.Helper()
	hb := &hookBackend{Backend: heclear.New(64, 65537)}
	svc := copse.NewService(copse.WithExternalBackend(hb), copse.WithWorkers(workers))
	t.Cleanup(func() { _ = svc.Close() })
	if err := svc.Register("m", compileExample(t, 64)); err != nil {
		t.Fatal(err)
	}
	q, err := svc.EncryptQueryBatch("m", [][]uint64{{3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return svc, hb, q
}

// classifyNoLeak runs one Classify and fails the test if an op is still
// running once it returns, or if it leaves more goroutines behind than
// it found.
func classifyNoLeak(t *testing.T, svc *copse.Service, hb *hookBackend, ctx context.Context, q *copse.Query) (*copse.Trace, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	_, trace, err := svc.Classify(ctx, "m", q)
	if n := hb.active.Load(); n != 0 {
		t.Errorf("%d ops still running after Classify returned: a helper outlived the pass", n)
	}
	// A helper that has returned can take a moment to be reaped; one
	// that never returns stays counted.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines after Classify, %d before: a helper outlived the pass", after, before)
	}
	return trace, err
}

// onCaller reports whether the running goroutine is the one that called
// into the engine, as opposed to an executor helper.
func onCaller() bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("ClassifyCtx"))
}

// TestExecutorPanicTyped: an op that panics — on an executor helper
// goroutine or on the calling goroutine — fails the pass with the typed
// *copse.InternalError, and no helper outlives Classify.
func TestExecutorPanicTyped(t *testing.T) {
	for _, side := range []struct {
		name   string
		caller bool
	}{{"helper", false}, {"caller", true}} {
		t.Run(side.name, func(t *testing.T) {
			svc, hb, q := executorService(t, 4)
			var fired atomic.Bool
			hook := func() error {
				if onCaller() == side.caller && fired.CompareAndSwap(false, true) {
					panic("injected op panic")
				}
				// Real ops take milliseconds; without that the caller can
				// drain a whole stage before a helper is scheduled.
				time.Sleep(time.Millisecond)
				return nil
			}
			hb.hook.Store(&hook)
			// Which goroutine runs which op is up to the scheduler; retry
			// until the panic lands on the wanted side.
			for attempt := 0; attempt < 50 && !fired.Load(); attempt++ {
				_, err := classifyNoLeak(t, svc, hb, context.Background(), q)
				if !fired.Load() {
					if err != nil {
						t.Fatalf("classify without a fault: %v", err)
					}
					continue
				}
				var ie *copse.InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("panic on the %s returned %v, want *copse.InternalError", side.name, err)
				}
			}
			if !fired.Load() {
				t.Fatalf("no op ran on the %s in 50 passes", side.name)
			}
		})
	}
}

// failAfter returns a hook that fails (via fail) the k-th op from now
// and counts the ops entered after it. Every other op sleeps briefly,
// as real homomorphic ops take milliseconds: a worker busy in one can
// start at most one more op while the failure is being recorded.
func failAfter(k int64, fail func() error) (func() error, *atomic.Int64) {
	var n, after atomic.Int64
	return func() error {
		switch i := n.Add(1); {
		case i == k:
			return fail()
		case i > k:
			after.Add(1)
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	}, &after
}

// TestExecutorErrorStopsDispatch: once an op fails, the executor
// dispatches no further op — only those already running on other
// workers may still start their backend call.
func TestExecutorErrorStopsDispatch(t *testing.T) {
	errInjected := errors.New("injected op failure")
	for _, workers := range []int{1, 4} {
		svc, hb, q := executorService(t, workers)
		hook, after := failAfter(3, func() error { return errInjected })
		hb.hook.Store(&hook)
		_, err := classifyNoLeak(t, svc, hb, context.Background(), q)
		if !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: classify returned %v, want the injected failure", workers, err)
		}
		if n := after.Load(); n > int64(workers-1) {
			t.Errorf("workers=%d: %d ops started after the failure, want at most %d in flight", workers, n, workers-1)
		}
	}
}

// TestExecutorCancelMidStage: a context cancelled while the compare
// stage runs stops the pass before the stage would have finished — the
// context is checked before every op, not only at stage ends.
func TestExecutorCancelMidStage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		svc, hb, q := executorService(t, workers)
		trace, err := classifyNoLeak(t, svc, hb, context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		c := trace.CompareOps
		const k = 3
		if stage := int64(c.Add + c.ConstAdd + c.Mul + c.ConstMul); stage <= k+int64(workers) {
			t.Fatalf("compare stage has only %d ops; the test needs more", stage)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		hook, after := failAfter(k, func() error {
			once.Do(cancel)
			return nil
		})
		hb.hook.Store(&hook)
		_, err = classifyNoLeak(t, svc, hb, ctx, q)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: classify returned %v, want context.Canceled", workers, err)
		}
		// The op that cancelled completes; beyond it only ops already
		// dispatched to other workers may run.
		if n := after.Load(); n > int64(workers-1) {
			t.Errorf("workers=%d: %d ops started after the cancel, want at most %d in flight", workers, n, workers-1)
		}
	}
}

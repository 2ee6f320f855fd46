package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerTransitions walks the state machine deterministically:
// closed → open at Threshold consecutive failures, rejecting during
// cooldown, half-open trial after cooldown, success closing / failure
// re-opening, and a success streak resetting the failure count. Run
// under -race in CI together with the concurrent hammer below.
func TestBreakerTransitions(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond, HalfOpenMax: 1}
	b := newBreaker(cfg)

	fail := func() {
		t.Helper()
		release, ok := b.Admit()
		if !ok {
			t.Fatal("closed breaker refused admission")
		}
		release(false)
	}
	succeed := func() {
		t.Helper()
		release, ok := b.Admit()
		if !ok {
			t.Fatal("breaker refused admission")
		}
		release(true)
	}

	// A success between failures resets the consecutive count.
	fail()
	fail()
	succeed()
	fail()
	fail()
	if state, _ := b.peek(); state != breakerClosed {
		t.Fatalf("state after 2 consecutive failures = %v, want closed", state)
	}
	fail()
	if state, _ := b.peek(); state != breakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", cfg.Threshold, state)
	}
	if _, ok := b.Admit(); ok {
		t.Fatal("open breaker admitted during cooldown")
	}

	// After cooldown the next Admit is a half-open trial; its failure
	// re-opens with a fresh cooldown.
	time.Sleep(cfg.Cooldown + 10*time.Millisecond)
	release, ok := b.Admit()
	if !ok {
		t.Fatal("cooled-down breaker refused trial")
	}
	if state, _ := b.peek(); state != breakerHalfOpen {
		t.Fatalf("state during trial = %v, want half-open", state)
	}
	// HalfOpenMax=1: a second concurrent trial must be refused.
	if _, ok := b.Admit(); ok {
		t.Fatal("half-open breaker exceeded HalfOpenMax")
	}
	release(false)
	if state, _ := b.peek(); state != breakerOpen {
		t.Fatalf("state after failed trial = %v, want open", state)
	}
	if _, ok := b.Admit(); ok {
		t.Fatal("re-opened breaker admitted during fresh cooldown")
	}

	// A successful trial closes the breaker and traffic resumes.
	time.Sleep(cfg.Cooldown + 10*time.Millisecond)
	succeed()
	if state, allows := b.peek(); state != breakerClosed || !allows {
		t.Fatalf("state after successful trial = %v (allows %v), want closed", state, allows)
	}
	succeed()

	if snap := b.snapshot(); snap.Opens != 2 || snap.State != "closed" {
		t.Errorf("snapshot = %+v, want 2 opens, closed", snap)
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines with
// mixed outcomes while others poll peek/snapshot — the state machine's
// invariants (never more than HalfOpenMax concurrent trials, release
// callbacks safe after state changes) must hold under the race
// detector.
func TestBreakerConcurrent(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Millisecond, HalfOpenMax: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if release, ok := b.Admit(); ok {
					release(i%3 != 0)
				}
				b.peek()
				if i%50 == 0 {
					b.snapshot()
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()

	// Whatever state the hammer left it in, the breaker must recover:
	// wait out a cooldown and drive successful trials until closed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if release, ok := b.Admit(); ok {
			release(true)
		}
		if state, _ := b.peek(); state == breakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker did not recover to closed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHalfOpenHolderProbedWithoutHedge: once a holder's cooldown has
// elapsed it gets a trial alongside the healthy primary even when the
// primary answers before HedgeDelay, so a recovered worker's breaker
// closes under ordinary traffic.
func TestHalfOpenHolderProbedWithoutHedge(t *testing.T) {
	g := NewGateway(GatewayConfig{
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond},
		HedgeDelay: time.Hour,
	})
	defer g.Close()
	release, _ := g.breakerFor("b").Admit()
	release(false) // opens b
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	primary := make(chan struct{})
	var primaryDone, probedAlongside atomic.Bool
	_, err := hedgedCall(g, ctx, []string{"a", "b"}, func(ctx context.Context, url string) (int, error) {
		if url == "a" {
			close(primary)
			<-ctx.Done() // the healthy primary is slow; the probe wins
			primaryDone.Store(true)
			return 0, ctx.Err()
		}
		<-primary
		probedAlongside.Store(!primaryDone.Load())
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !probedAlongside.Load() {
		t.Fatal("half-open holder was tried only after the primary failed, not alongside it")
	}
	if s := g.breakerFor("b").snapshot().State; s != "closed" {
		t.Errorf("probed holder's breaker is %s after a successful trial, want closed", s)
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"copse"
)

// errAllBreakersOpen reports a call that could not be attempted at all:
// every holder's circuit breaker refused admission. Distinct from a
// call whose attempts all failed — the decode path uses the distinction
// to decide whether a breaker-bypassing last resort is worth it.
var errAllBreakersOpen = errors.New("cluster: every holder's circuit breaker is open")

// httpStatusError is a non-200 data-plane response, typed so the
// breaker layer can classify it: 5xx says the worker is unhealthy, 4xx
// says the request was at fault (and must not trip the breaker).
type httpStatusError struct {
	Status     int
	StatusLine string // e.g. "503 Service Unavailable"
	Msg        string
	RetryAfter string // Retry-After header of a 429, if the worker sent one
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s: %s", e.StatusLine, e.Msg)
}

// breakerSuccess classifies an attempt outcome for breaker accounting:
// only failures that indict the worker count. A cancelled attempt (the
// round was won by a hedge sibling, or the caller gave up) and a 4xx
// response say nothing about worker health.
func breakerSuccess(err error, rctx context.Context) bool {
	if err == nil {
		return true
	}
	if rctx != nil && rctx.Err() != nil {
		return true
	}
	var hs *httpStatusError
	if errors.As(err, &hs) {
		return hs.Status < http.StatusInternalServerError
	}
	return false
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitteredBackoff spreads a base backoff uniformly over [b/2, 3b/2) so
// concurrent retriers do not re-converge on the recovering worker in
// lockstep.
func jitteredBackoff(b time.Duration) time.Duration {
	return b/2 + time.Duration(rand.Int64N(int64(b)))
}

// attemptOutcome is one holder attempt's result.
type attemptOutcome[T any] struct {
	val T
	err error
}

// hedgedCall runs call against the holders in urls with the gateway's
// full resilience policy: per-worker breaker admission (closed-breaker
// holders preferred), hedged fan-out (a second attempt launches on the
// next holder after HedgeDelay without waiting for the first to fail),
// immediate failover on error, and up to cfg.Retries extra rounds with
// exponential backoff + jitter between them. The first success wins and
// cancels its losing siblings; losers cancelled this way do not count
// against their worker's breaker.
func hedgedCall[T any](g *Gateway, ctx context.Context, urls []string, call func(ctx context.Context, url string) (T, error)) (T, error) {
	var zero T
	if len(urls) == 0 {
		return zero, fmt.Errorf("no holders")
	}
	backoff := g.cfg.RetryBackoff
	var lastErr error
	admittedAny := false
	for round := 0; round <= g.cfg.Retries; round++ {
		if round > 0 {
			g.retries.Add(1)
			if err := sleepCtx(ctx, jitteredBackoff(backoff)); err != nil {
				return zero, err
			}
			backoff = min(2*backoff, 2*time.Second)
		}
		val, err, admitted := hedgedRound(g, ctx, urls, call)
		if admitted {
			admittedAny = true
			if err == nil {
				return val, nil
			}
			lastErr = err
		}
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			break
		}
	}
	if !admittedAny {
		return zero, errAllBreakersOpen
	}
	return zero, lastErr
}

// hedgedRound makes one pass over the admitted holders. It reports
// admitted=false when every breaker refused (nothing was attempted).
func hedgedRound[T any](g *Gateway, ctx context.Context, urls []string, call func(ctx context.Context, url string) (T, error)) (T, error, bool) {
	var zero T
	// Candidate order: healthy (closed-breaker) holders first, then
	// half-open/cooldown-elapsed ones as fallbacks for hedges and
	// failover.
	type candidate struct {
		url  string
		b    *breaker
		rank int
	}
	var candidates []candidate
	for _, url := range urls {
		b := g.breakerFor(url)
		state, allowed := b.peek()
		if !allowed {
			continue
		}
		rank := 0
		if state != breakerClosed {
			rank = 1
		}
		candidates = append(candidates, candidate{url: url, b: b, rank: rank})
	}
	sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].rank < candidates[j].rank })
	if len(candidates) == 0 {
		return zero, nil, false
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the full candidate set: losers finishing after the
	// winner returns must not block (goroutine leak).
	results := make(chan attemptOutcome[T], len(candidates))
	inflight := 0
	launch := func(c candidate) bool {
		release, ok := c.b.Admit()
		if !ok {
			return false
		}
		inflight++
		go func() {
			defer func() {
				if r := recover(); r != nil {
					g.panics.Add(1)
					release(false)
					results <- attemptOutcome[T]{err: &copse.InternalError{Op: "holder attempt", Value: r, Stack: debug.Stack()}}
				}
			}()
			val, err := call(rctx, c.url)
			release(breakerSuccess(err, rctx))
			results <- attemptOutcome[T]{val: val, err: err}
		}()
		return true
	}
	next := 0
	launchNext := func() bool {
		for next < len(candidates) {
			c := candidates[next]
			next++
			if launch(c) {
				return true
			}
		}
		return false
	}
	attempted := launchNext()
	if !attempted {
		return zero, nil, false
	}
	// A half-open holder (cooldown elapsed) gets its trial alongside a
	// healthy primary instead of waiting for a hedge: when the healthy
	// holders answer within HedgeDelay no hedge ever fires, and a worker
	// that recovered would never see traffic again. The primary keeps
	// the request's latency; the first success wins either way.
	if candidates[next-1].rank == 0 {
		for i := next; i < len(candidates); i++ {
			if candidates[i].rank == 1 {
				c := candidates[i]
				candidates = slices.Delete(candidates, i, i+1)
				launch(c)
				break
			}
		}
	}

	var hedgeC <-chan time.Time
	var hedgeTimer *time.Timer
	armHedge := func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
			hedgeTimer, hedgeC = nil, nil
		}
		if g.cfg.HedgeDelay > 0 && next < len(candidates) {
			hedgeTimer = time.NewTimer(g.cfg.HedgeDelay)
			hedgeC = hedgeTimer.C
		}
	}
	armHedge()
	defer func() {
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
	}()

	var lastErr error
	for inflight > 0 {
		select {
		case out := <-results:
			inflight--
			if out.err == nil {
				return out.val, nil, true
			}
			lastErr = out.err
			if inflight == 0 && ctx.Err() == nil {
				// Immediate failover: the round still has untried
				// holders and nothing in flight.
				if launchNext() {
					g.retries.Add(1)
					armHedge()
				}
			}
		case <-hedgeC:
			if launchNext() {
				g.hedges.Add(1)
			}
			armHedge()
		case <-ctx.Done():
			return zero, ctx.Err(), true
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no holders")
	}
	return zero, lastErr, true
}

// stageWeights apportions a request's remaining deadline across the
// pipeline stages of one pass (DESIGN.md §15). Shares are recomputed
// from the live remaining budget at each stage boundary, so slack left
// by a fast stage flows to the stages after it.
var stageWeights = []struct {
	name string
	w    float64
}{
	{"encrypt", 0.15},
	{"fanout", 0.55},
	{"merge", 0.05},
	{"decode", 0.25},
}

// stageBudget derives stage's share of ctx's remaining deadline budget:
// remaining × w(stage) / Σ w(stage..last). Without a deadline it
// returns ctx unchanged. An exhausted budget fails fast with a typed
// *copse.DeadlineError instead of starting work that cannot finish.
func (g *Gateway) stageBudget(ctx context.Context, stage string) (context.Context, context.CancelFunc, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}, nil
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		g.deadlineFails.Add(1)
		return nil, nil, &copse.DeadlineError{Stage: stage, Remaining: remaining}
	}
	var w, sum float64
	seen := false
	for _, s := range stageWeights {
		if s.name == stage {
			seen = true
			w = s.w
		}
		if seen {
			sum += s.w
		}
	}
	if !seen || sum == 0 {
		return ctx, func() {}, nil
	}
	share := time.Duration(float64(remaining) * w / sum)
	sctx, cancel := context.WithDeadline(ctx, time.Now().Add(share))
	return sctx, cancel, nil
}

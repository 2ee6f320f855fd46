package main

import (
	"math/rand/v2"
	"time"
)

// arrival is one scheduled open-loop request: when it is due, measured
// from the start of the schedule, and how many queries it carries.
type arrival struct {
	Due     time.Duration
	Queries int
}

// poissonSchedule lays out n arrivals of a Poisson process over span,
// conditioned on the count: the arrival times are the normalised
// partial sums of n+1 exponential gaps, which is the law of n sorted
// uniform points — the arrivals of a Poisson process given that n fell
// in the window. Fixing n keeps the offered load identical across
// seeds. Request sizes are a seeded shuffle of a balanced multiset over
// minQ..maxQ, so each request's size is uniform while the total query
// count is fixed too. The same seed gives the same schedule.
func poissonSchedule(seed uint64, n int, span time.Duration, minQ, maxQ int) []arrival {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0xa7717a1))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	sizes := make([]int, n)
	width := maxQ - minQ + 1
	for i := range sizes {
		sizes[i] = minQ + i%width
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

	out := make([]arrival, n)
	acc := 0.0
	for i := range out {
		acc += gaps[i]
		out[i] = arrival{Due: time.Duration(float64(span) * acc / total), Queries: sizes[i]}
	}
	return out
}

// latencyFromDue is an open-loop request's latency: from when it was
// due to be sent, not from when the generator got round to sending it,
// so a stalled generator charges the stall to every request it delays.
func latencyFromDue(start time.Time, due time.Duration, done time.Time) time.Duration {
	return done.Sub(start.Add(due))
}

package main

import (
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tailPick is a selected tail percentile: its value, the integer
// percentile it sits at, and how many samples lie beyond it.
type tailPick struct {
	Value      float64
	Percentile int
	Beyond     int
	Samples    int
}

// tailPercentile returns the highest integer percentile of xs that
// still has at least tailMinBeyond samples strictly beyond its
// nearest-rank position. With tailMinBeyond or fewer samples no
// percentile qualifies; the maximum is returned as percentile 100 with
// nothing beyond it, so the record shows the tail is unsupported.
func tailPercentile(xs []float64) tailPick {
	n := len(xs)
	if n == 0 {
		return tailPick{}
	}
	s := sortedCopy(xs)
	if n <= tailMinBeyond {
		return tailPick{Value: s[n-1], Percentile: 100, Samples: n}
	}
	p := 100 * (n - tailMinBeyond) / n
	rank := nearestRank(p, n)
	return tailPick{Value: s[rank-1], Percentile: p, Beyond: n - rank, Samples: n}
}

// nearestRank is the 1-based nearest-rank position of percentile p in n
// sorted samples: the smallest rank r with r ≥ p·n/100.
func nearestRank(p, n int) int {
	r := (p*n + 99) / 100
	return max(r, 1)
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package copse

import (
	"runtime"
	"testing"

	"copse/internal/he/hebgv"
)

// TestDefaultCoreBudget: with no options a service gives each in-flight
// pass NumCPU / max(maxInFlight, 1) query workers and leaves the ring
// layer serial; an explicit WithWorkers or WithIntraOpWorkers wins.
func TestDefaultCoreBudget(t *testing.T) {
	n := runtime.NumCPU()
	serialUnless := func(limb int) int {
		if limb < 2 {
			return 0
		}
		return limb
	}
	cases := []struct {
		name             string
		opts             []Option
		workers, intraOp int
	}{
		{"default", nil, n, 0},
		{"maxinflight", []Option{WithMaxInFlight(2)}, max(1, n/2), 0},
		{"explicit workers", []Option{WithWorkers(1)}, 1, serialUnless(n)},
		{"explicit intraop", []Option{WithIntraOpWorkers(3)}, n, 3},
		{"both explicit", []Option{WithWorkers(3), WithIntraOpWorkers(2)}, 3, 2},
	}
	for _, c := range cases {
		s := NewService(c.opts...)
		if got := s.queryWorkers(); got != c.workers {
			t.Errorf("%s: %d query workers, want %d", c.name, got, c.workers)
		}
		if got := s.intraOpBudget(); got != c.intraOp {
			t.Errorf("%s: limb pool %d, want %d", c.name, got, c.intraOp)
		}
	}

	// End to end: a default BGV service stages its engine and backend
	// with the resolved budget.
	s := NewService(WithSeed(3))
	defer s.Close()
	c, err := Compile(ExampleForest(), CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("m", c); err != nil {
		t.Fatal(err)
	}
	if got := s.models["m"].engine.Workers; got != n {
		t.Errorf("engine runs %d workers, want NumCPU = %d", got, n)
	}
	if got := s.Backend().(*hebgv.Backend).IntraOpWorkers(); got > 1 {
		t.Errorf("default ring layer runs a %d-worker limb pool, want serial", got)
	}
}

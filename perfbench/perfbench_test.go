package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 33, 40, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed, so selection must sort
		}
		got := tailPercentile(xs)
		if got.Beyond < tailMinBeyond {
			t.Errorf("n=%d: p%d has %d samples beyond, want ≥ %d", n, got.Percentile, got.Beyond, tailMinBeyond)
		}
		// Beyond counts the samples strictly above the value.
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above %v, record says %d", n, above, got.Value, got.Beyond)
		}
		// One percentile higher would leave fewer than ten beyond.
		if next := got.Percentile + 1; next <= 100 && n-nearestRank(next, n) >= tailMinBeyond {
			t.Errorf("n=%d: p%d still has ten beyond; p%d is not the highest", n, next, got.Percentile)
		}
	}
}

func TestTailPercentileKnownValues(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailPercentile(xs); got.Percentile != 90 || got.Value != 90 || got.Beyond != 10 {
		t.Errorf("1..100: got %+v, want p90 = 90 with 10 beyond", got)
	}
	few := []float64{5, 1, 3}
	if got := tailPercentile(few); got.Percentile != 100 || got.Value != 5 || got.Beyond != 0 {
		t.Errorf("3 samples: got %+v, want the maximum flagged as p100", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	const n = 200
	span := 20 * time.Second
	a := poissonSchedule(7, n, span, 1, 4)
	b := poissonSchedule(7, n, span, 1, 4)
	c := poissonSchedule(8, n, span, 1, 4)
	if len(a) != n {
		t.Fatalf("got %d arrivals, want %d", len(a), n)
	}
	same := true
	total := 0
	counts := map[int]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs for the same seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if a[i].Due < 0 || a[i].Due >= span {
			t.Fatalf("arrival %d due at %v, outside [0, %v)", i, a[i].Due, span)
		}
		total += a[i].Queries
		counts[a[i].Queries]++
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	if total != n*5/2 {
		t.Errorf("total queries %d, want %d: the size multiset must be balanced", total, n*5/2)
	}
	for q := 1; q <= 4; q++ {
		if counts[q] != n/4 {
			t.Errorf("%d requests of size %d, want %d", counts[q], q, n/4)
		}
	}
}

func TestLatencyFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	due := 300 * time.Millisecond
	// Sent 50 ms late and answered 200 ms after sending: the lateness
	// belongs to the request.
	done := start.Add(due + 50*time.Millisecond + 200*time.Millisecond)
	if got := latencyFromDue(start, due, done); got != 250*time.Millisecond {
		t.Errorf("latency %v, want 250ms", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Req: 1, Name: "gen.request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Req: 1, Name: "client.encrypt", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Req: 1, Name: "service.classify", Start: ms(10), End: ms(90)},
		{ID: 4, Parent: 3, Req: 1, Name: "core.compare", Start: ms(10), End: ms(50)},
		// Overlapping children are counted once; a child running past
		// its parent is clipped to it.
		{ID: 5, Parent: 3, Req: 1, Name: "core.levels", Start: ms(40), End: ms(95)},
		{ID: 6, Req: 2, Name: "gen.request", Start: ms(200), End: ms(230)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(10), 2: ms(10), 3: 0, 4: ms(40), 5: ms(55), 6: ms(30)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	per := layerSelfPerRequest(spans)
	if got := per["core"]; len(got) != 1 || got[0] != ms(95) {
		t.Errorf("core self per request %v, want [95ms]", got)
	}
	if got := per["gen"]; len(got) != 2 {
		t.Errorf("gen layer seen in %d requests, want 2", len(got))
	}
}

func TestAddSequenceLaysStagesEndToEnd(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(time.Second)
	ids := tr.addSequence(1, 0, start, []string{"a", "b", "c"},
		[]time.Duration{time.Millisecond, 0, 2 * time.Millisecond})
	if ids[1] != 0 || ids[0] == 0 || ids[2] == 0 {
		t.Fatalf("ids %v: want the zero-length stage skipped", ids)
	}
	s := tr.snapshot()
	if len(s) != 2 || s[1].Start != s[0].End || s[1].End-s[0].Start != 3*time.Millisecond {
		t.Errorf("spans %+v not laid end to end", s)
	}
	var off *tracer
	if id := off.add(1, 0, "x", start, start); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestCountingTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write([]byte(strings.Repeat("x", 2*len(body))))
	}))
	defer srv.Close()
	ct := &countingTransport{base: http.DefaultTransport}
	client := &http.Client{Transport: ct}
	resp, err := client.Post(srv.URL, "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(got) != 10 {
		t.Fatalf("response %d bytes, want 10", len(got))
	}
	if ct.sent.Load() != 5 || ct.recv.Load() != 10 || ct.bytes() != 15 {
		t.Errorf("counted sent=%d recv=%d total=%d, want 5, 10, 15", ct.sent.Load(), ct.recv.Load(), ct.bytes())
	}
	// A bodiless request counts only what comes back.
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct.bytes() != 15 {
		t.Errorf("GET with empty body and reply changed the total to %d", ct.bytes())
	}
}

func TestReadLimits(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/BENCHMARK.json"
	def := `{"workloads": [{"name": "online", "why": "open loop. offered 2.5 req/s, limit 900 ms"},
		{"name": "bare", "why": "no numbers"}]}`
	if err := os.WriteFile(path, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{workload: "online"}
	if err := readLimits(path, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.limit != 900*time.Millisecond || cfg.rate != 2.5 {
		t.Errorf("limit %v rate %v, want 900ms and 2.5", cfg.limit, cfg.rate)
	}
	for _, name := range []string{"bare", "missing"} {
		if err := readLimits(path, &runConfig{workload: name}); err == nil {
			t.Errorf("workload %q: want an error", name)
		}
	}
}

func TestBenchmarkDefinitionStatesLimits(t *testing.T) {
	for _, name := range workloads {
		cfg := runConfig{workload: name}
		if err := readLimits("../BENCHMARK.json", &cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.limit <= 0 {
			t.Errorf("%s: no latency limit", name)
		}
		if (name == "online") != (cfg.rate > 0) {
			t.Errorf("%s: offered rate %v; only the open loop has one", name, cfg.rate)
		}
	}
}

func TestTracerConcurrentAdd(t *testing.T) {
	tr := newTracer()
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				now := time.Now()
				tr.add(int64(g*each+i), 0, "gen.request", now, now)
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, s := range tr.snapshot() {
		if seen[s.ID] {
			t.Fatalf("span ID %d issued twice", s.ID)
		}
		seen[s.ID] = true
	}
	if len(seen) != goroutines*each {
		t.Errorf("%d spans recorded, want %d", len(seen), goroutines*each)
	}
}

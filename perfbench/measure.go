package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"copse"
)

// tracedRefPasses is how many reference passes a traced run takes on
// workloads whose load calls return no stage trace.
const tracedRefPasses = 3

// execute builds the workload's system (several times, for setup_s),
// drives the load, applies the correctness gate and computes the
// metrics the mode asks for.
func execute(cfg runConfig, w workload, prov map[string]any) (*record, error) {
	var setups []setupTimes
	for i := range w.setupReps() {
		if i > 0 {
			w.close()
			// Release the previous build's keys before the next, so each
			// setup starts from the same heap.
			runtime.GC()
			debug.FreeOSMemory()
		}
		st, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
	}
	defer w.close()
	if b := w.backend(); b != nil {
		prov["intra_op_workers"] = b.IntraOpWorkers()
	}
	if err := w.warm(); err != nil {
		return nil, err
	}
	// Start the load from a collected heap, so the collector's pacing
	// does not depend on what setup and warm-up left behind.
	runtime.GC()

	g := &gate{}
	rec := &record{Provenance: prov, Summary: map[string]any{}}
	var measured *phase
	var metrics map[string]metric
	if !cfg.trace {
		ph := w.load(cfg.seconds, nil, 0)
		passes, err := observedPasses(w, ph, 1)
		if err != nil {
			return nil, err
		}
		g.checkPasses(passes)
		measured = ph
		metrics = endToEnd(cfg, setups, ph, rec.Summary)
	} else {
		half := cfg.seconds / 2
		plain := w.load(half, nil, 0)
		plainPasses, err := observedPasses(w, plain, 1)
		if err != nil {
			return nil, err
		}
		before := serviceTotals(w.services())
		tr := newTracer()
		traced := w.load(half, tr, int64(len(plain.reqs)))
		after := serviceTotals(w.services())
		retries, hedges, err := w.gatewayCounts()
		if err != nil {
			return nil, err
		}
		tracedPasses, err := observedPasses(w, traced, tracedRefPasses)
		if err != nil {
			return nil, err
		}
		g.checkPasses(append(plainPasses, tracedPasses...))
		g.checkPhase(plain)
		measured = traced
		rec.Spans = tr.snapshot()
		in := layerInputs{
			cfg: cfg, w: w, setups: setups, plain: plain, traced: traced,
			passes: tracedPasses, before: before, after: after,
			retries: retries, hedges: hedges, spans: rec.Spans,
		}
		metrics, err = perLayer(in, rec.Summary)
		if err != nil {
			return nil, err
		}
	}
	g.checkPhase(measured)

	attempted, failed := 0, 0
	for _, r := range measured.reqs {
		attempted += r.queries
		if r.failed || r.wrong > 0 {
			failed += r.queries
		}
	}
	rec.Problems = g.problems
	rec.Result = result{
		Correct:   len(g.problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no requests completed in %v", cfg.seconds)
	}
	return rec, nil
}

// observedPasses returns the passes whose stage trace the load saw,
// topping up with n reference passes when its calls return none.
func observedPasses(w workload, ph *phase, n int) ([]passInfo, error) {
	if len(ph.passes) > 0 {
		return ph.passes, nil
	}
	return w.refPasses(n)
}

// gate collects the reasons a run is not correct.
type gate struct{ problems []string }

func (g *gate) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// checkPhase fails the run on any answer that disagrees with the
// plaintext forest walk.
func (g *gate) checkPhase(ph *phase) {
	wrong := 0
	for _, r := range ph.reqs {
		wrong += r.wrong
	}
	if wrong > 0 {
		g.failf("%d answers differ from the plaintext forest walk", wrong)
	}
}

// checkPasses requires every observed pass — untraced and traced alike
// — to run the specialized op program with the same op bill, and to
// leave a positive noise margin on its result.
func (g *gate) checkPasses(passes []passInfo) {
	if len(passes) == 0 {
		g.failf("no pass traces observed")
		return
	}
	want := passes[0].ops()
	for _, p := range passes {
		if p.trace.Executor != "program" {
			g.failf("pass ran executor %q, want \"program\"", p.trace.Executor)
			return
		}
		if p.ops() != want {
			g.failf("per-pass op counts differ between passes: %v vs %v", p.ops(), want)
			return
		}
		if p.noise <= 0 {
			g.failf("result noise margin %d bits is not positive", p.noise)
			return
		}
	}
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(cfg runConfig, setups []setupTimes, ph *phase, summary map[string]any) map[string]metric {
	var lat []float64
	sent, good, inLimit := 0, 0, 0
	for _, r := range ph.reqs {
		sent += r.queries
		if r.failed || r.wrong > 0 {
			continue
		}
		lat = append(lat, ms(r.latency))
		good += r.queries
		if r.latency <= cfg.limit {
			inLimit += r.queries
		}
	}
	tail := tailPercentile(lat)
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.Total.Seconds()
	}
	rss, err := peakRSSMB()
	if err != nil {
		rss = -1 // reported, and visibly wrong, rather than dropped
	}
	summary["requests"] = len(ph.reqs)
	summary["latency_tail_percentile"] = tail.Percentile
	summary["latency_tail_beyond"] = tail.Beyond
	summary["latency_samples"] = tail.Samples
	summary["latency_limit_ms"] = ms(cfg.limit)
	summary["wall_s"] = ph.wall.Seconds()
	summary["setup_s_each"] = totals
	if cfg.rate > 0 {
		summary["offered_rps"] = cfg.rate
	}
	return map[string]metric{
		"setup_s":         {median(totals), "s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {tail.Value, "ms"},
		"throughput_qps":  {ratio(float64(good), ph.wall.Seconds()), "queries/s"},
		"slo_frac":        {ratio(float64(inLimit), float64(sent)), "ratio"},
		"rss_mb":          {rss, "MB"},
	}
}

// totals sums the serving counters of every service in a workload.
type totals struct {
	requests, queries, shed, coalesced int64
	latency, queueWait, batchWait      time.Duration
}

func serviceTotals(svcs []*copse.Service) totals {
	var t totals
	for _, s := range svcs {
		st := s.Stats()
		t.requests += st.Requests
		t.queries += st.Queries
		t.shed += st.Shed
		t.coalesced += st.CoalescedQueries
		t.latency += st.Latency
		t.queueWait += st.QueueWait
		t.batchWait += st.BatchWait
	}
	return t
}

func (a totals) minus(b totals) totals {
	return totals{
		requests: a.requests - b.requests, queries: a.queries - b.queries,
		shed: a.shed - b.shed, coalesced: a.coalesced - b.coalesced,
		latency: a.latency - b.latency, queueWait: a.queueWait - b.queueWait,
		batchWait: a.batchWait - b.batchWait,
	}
}

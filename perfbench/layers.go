package main

import (
	"fmt"
	"time"
)

// layerInputs is what a traced run hands the per-layer computation.
type layerInputs struct {
	cfg           runConfig
	w             workload
	setups        []setupTimes
	plain, traced *phase
	passes        []passInfo // stage-traced passes of the traced phase
	before, after totals     // serving counters around the traced phase
	retries       int64
	hedges        int64
	spans         []span
}

// selfLayers are the layers whose per-request self time is reported.
var selfLayers = []string{"gen", "client", "service", "core", "cluster"}

// perLayer computes every per-layer metric. A layer the workload does
// not call reports 0: solo has no cluster, online's batcher encrypts
// inside the service, cluster's gateway does the client's encryption.
func perLayer(in layerInputs, summary map[string]any) (map[string]metric, error) {
	if len(in.passes) == 0 {
		return nil, fmt.Errorf("no pass traces observed")
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	reqs := answered(in.traced)

	// Load generator and tracing.
	var lag time.Duration
	for _, l := range in.traced.lags {
		lag = max(lag, l)
	}
	put("gen.lag_ms", ms(lag), "ms")
	sent, failed := 0, 0
	for _, r := range in.traced.reqs {
		sent += r.queries
		if r.failed || r.wrong > 0 {
			failed += r.queries
		}
	}
	put("gen.fail_frac", ratio(float64(failed), float64(sent)), "ratio")
	put("trace.overhead_ms", medianOf(reqs, latencyOf)-medianOf(answered(in.plain), latencyOf), "ms")
	self := layerSelfPerRequest(in.spans)
	for _, layer := range selfLayers {
		xs := make([]float64, len(self[layer]))
		for i, d := range self[layer] {
			xs[i] = ms(d)
		}
		put("trace.self_"+layer+"_ms", median(xs), "ms")
	}
	summary["spans"] = len(in.spans)

	// Client.
	put("client.encrypt_ms", medianOf(reqs, func(r request) time.Duration { return r.encrypt }), "ms")
	put("client.decrypt_ms", medianOf(reqs, func(r request) time.Duration { return r.decrypt }), "ms")

	// Service.
	d := in.after.minus(in.before)
	put("service.classify_ms", ratio(ms(d.latency), float64(d.requests)), "ms")
	put("service.passes", float64(d.requests), "count")
	put("service.queries_per_pass", ratio(float64(d.queries), float64(d.requests)), "queries")
	put("service.batch_fill", ratio(float64(d.queries), float64(d.requests)*float64(in.w.capacity())), "ratio")
	put("service.batch_wait_ms", ratio(ms(d.batchWait), float64(d.coalesced)), "ms")
	put("service.queue_wait_ms", ratio(ms(d.queueWait), float64(d.requests)), "ms")
	put("service.shed", float64(d.shed), "count")

	// Core: setup stages, then the stage split and op bill of a pass.
	put("core.compile_ms", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.Compile })*1e3, "ms")
	put("core.register_ms", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.Register })*1e3, "ms")
	stage := func(f func(t passInfo) time.Duration) float64 {
		xs := make([]float64, len(in.passes))
		for i, p := range in.passes {
			xs[i] = ms(f(p))
		}
		return median(xs)
	}
	put("core.compare_ms", stage(func(p passInfo) time.Duration { return p.trace.Compare }), "ms")
	put("core.reshuffle_ms", stage(func(p passInfo) time.Duration { return p.trace.Reshuffle }), "ms")
	put("core.levels_ms", stage(func(p passInfo) time.Duration { return p.trace.Levels }), "ms")
	put("core.accumulate_ms", stage(func(p passInfo) time.Duration { return p.trace.Accumulate }), "ms")
	cover := make([]float64, len(in.passes))
	for i, p := range in.passes {
		cover[i] = ratio(float64(p.stages()), float64(p.classify))
	}
	put("core.stage_coverage", median(cover), "ratio")
	ops := in.passes[0].ops() // the gate made every pass's bill equal
	put("core.rotations", float64(ops.Rotate), "count")
	put("core.rotations_hoisted", float64(ops.RotateHoisted), "count")
	put("core.muls", float64(ops.Mul), "count")
	put("core.relins", float64(ops.Relin), "count")
	put("core.const_muls", float64(ops.ConstMul), "count")
	put("core.limb_ops", float64(ops.LimbOps), "count")

	// BGV and ring unit costs on the live backend, after the load.
	b := in.w.backend()
	if b == nil {
		return nil, fmt.Errorf("workload has no BGV backend")
	}
	bu, err := measureBGV(b, in.cfg.seed)
	if err != nil {
		return nil, err
	}
	put("bgv.mul_relin_us", us(bu.MulRelin), "us")
	put("bgv.relin_us", us(bu.Relin), "us")
	put("bgv.rotate_us", us(bu.Rotate), "us")
	put("bgv.rotate_hoisted_us", us(bu.RotateHoisted), "us")
	put("bgv.mul_plain_us", us(bu.MulPlain), "us")
	put("bgv.encrypt_us", us(bu.Encrypt), "us")
	put("bgv.decrypt_us", us(bu.Decrypt), "us")
	keys, _ := b.KeyMaterial()
	put("bgv.key_mb", float64(keys)/1e6, "MB")
	explained := make([]float64, len(in.passes))
	noise := in.passes[0].noise
	for i, p := range in.passes {
		explained[i] = ratio(float64(bu.bill(p.ops())), float64(p.stages()))
		noise = min(noise, p.noise)
	}
	put("bgv.explained_frac", median(explained), "ratio")
	put("bgv.result_noise_bits", float64(noise), "bits")
	ru := measureRing(b.Parameters().RingCtx, in.cfg.seed)
	put("ring.ntt_us", us(ru.NTT), "us")
	put("ring.intt_us", us(ru.INTT), "us")
	put("ring.mul_coeffs_us", us(ru.MulCoeffs), "us")

	// Cluster.
	put("cluster.stage_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.Stage }), "s")
	put("cluster.refresh_s", medianSetup(in.setups, func(s setupTimes) time.Duration { return s.Refresh }), "s")
	fan := func(f func(r request) time.Duration) float64 {
		return medianOf(reqs, func(r request) time.Duration {
			if r.fanout == nil {
				return 0
			}
			return f(r)
		})
	}
	put("cluster.encrypt_ms", fan(func(r request) time.Duration { return r.fanout.Encrypt }), "ms")
	put("cluster.fanout_ms", fan(func(r request) time.Duration { return r.fanout.Fanout }), "ms")
	put("cluster.shard_pass_ms", fan(func(r request) time.Duration { return r.shardPass }), "ms")
	put("cluster.merge_ms", fan(func(r request) time.Duration { return r.fanout.Merge }), "ms")
	put("cluster.decode_ms", fan(func(r request) time.Duration { return r.fanout.Decode }), "ms")
	put("cluster.wire_ms", fan(func(r request) time.Duration { return r.fanout.Fanout - r.shardPass }), "ms")
	wire := make([]float64, len(reqs))
	for i, r := range reqs {
		wire[i] = float64(r.wireBytes)
	}
	put("cluster.wire_bytes", median(wire), "bytes")
	put("cluster.retries", float64(in.retries), "count")
	put("cluster.hedges", float64(in.hedges), "count")

	summary["reference_passes"] = len(in.passes)
	summary["pass_ops"] = ops.String()
	summary["pass_executor"] = in.passes[0].trace.Executor
	summary["pass_limbs"] = in.passes[0].trace.Limbs
	return m, nil
}

// answered keeps the requests that were answered correctly.
func answered(ph *phase) []request {
	var out []request
	for _, r := range ph.reqs {
		if !r.failed && r.wrong == 0 {
			out = append(out, r)
		}
	}
	return out
}

func latencyOf(r request) time.Duration { return r.latency }

// medianOf is the median of f over the requests, in milliseconds.
func medianOf(reqs []request, f func(request) time.Duration) float64 {
	xs := make([]float64, len(reqs))
	for i, r := range reqs {
		xs[i] = ms(f(r))
	}
	return median(xs)
}

// medianSetup is the median of one setup phase, in seconds.
func medianSetup(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s).Seconds()
	}
	return median(xs)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"copse"
	"copse/internal/cluster"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
	"copse/internal/synth"
)

const (
	// slots is the packing width of the SecurityTest preset.
	slots = 1024
	// modelName is the name every workload registers its forest under.
	modelName = "forest"
	// onlineWindow is the online workload's fixed batcher linger window.
	// At the offered rate it coalesces about 1.4 requests per pass and
	// keeps passes from piling onto the 2 CPUs, whose interleaving
	// otherwise swings the latency figures by a fifth from run to run.
	onlineWindow = 200 * time.Millisecond
	// onlineMinQ and onlineMaxQ bound an online request's query count.
	onlineMinQ, onlineMaxQ = 1, 4
	// clusterQueries is a cluster request's size: one full pass.
	clusterQueries = 8
	// refBatch is the batch a reference pass carries on the online
	// workload: about the queries its coalesced passes carry.
	refBatch = 4
)

// setupTimes splits one setup: Total runs from compile until the first
// request can be served.
type setupTimes struct {
	Total, Compile, Register, Stage, Refresh time.Duration
}

// request is one request as the load generator saw it, with the layer
// timings the public calls exposed for it (zero where not called).
type request struct {
	queries int
	latency time.Duration
	failed  bool
	wrong   int // answers that disagree with the plaintext forest walk

	encrypt, decrypt time.Duration
	fanout           *cluster.FanoutTrace
	shardPass        time.Duration
	wireBytes        int64
}

// passInfo is one classification pass whose stage trace the run saw.
type passInfo struct {
	trace    *copse.Trace
	classify time.Duration // the Service.Classify call around it
	noise    int           // result noise budget in bits
}

// ops is the pass's total op bill.
func (p passInfo) ops() he.OpCounts {
	t := p.trace
	return t.CompareOps.Plus(t.ReshuffleOps).Plus(t.LevelOps).Plus(t.AccumulateOps).Plus(t.ShuffleOps)
}

// stages is the pass's summed stage time.
func (p passInfo) stages() time.Duration {
	t := p.trace
	return t.Compare + t.Reshuffle + t.Levels + t.Accumulate + t.Shuffle
}

// phase is one measured stretch of load.
type phase struct {
	reqs   []request
	wall   time.Duration
	lags   []time.Duration // open loop only
	passes []passInfo      // passes whose Trace the load's own calls returned
}

// workload is one named traffic mix over a system it builds itself.
type workload interface {
	// setupReps is how many times a run builds the system; setup_s is
	// the median.
	setupReps() int
	// setup builds the system from scratch up to the point the first
	// request can be served.
	setup() (setupTimes, error)
	close()
	warm() error
	// load drives requests for d. tr is nil in the untraced phase; req
	// IDs start at base.
	load(d time.Duration, tr *tracer, base int64) *phase
	// refPasses runs n passes outside the load through the public
	// Service calls, for the stage trace, op bill and result noise of
	// workloads whose load calls return no Trace.
	refPasses(n int) ([]passInfo, error)
	services() []*copse.Service
	backend() *hebgv.Backend
	// capacity is the queries one pass of a serving layer can carry.
	capacity() int
	// gatewayCounts returns the cluster gateway's retry and hedge
	// totals; zero without a gateway.
	gatewayCounts() (retries, hedges int64, err error)
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "solo", "online":
		depth4 := synth.Microbenchmarks()[0]
		f, err := synth.Generate(depth4.Spec)
		if err != nil {
			return nil, err
		}
		w := &serviceWL{cfg: cfg, forest: f, rng: newRNG(cfg.seed, 1)}
		if cfg.workload == "online" {
			if cfg.rate <= 0 {
				return nil, fmt.Errorf("workload online needs an offered rate")
			}
			w.online = true
		}
		return w, nil
	case "cluster":
		f, err := synth.Generate(synth.ForestSpec{
			Name: "cluster4", NumFeatures: 2, NumLabels: 3, Precision: 8, MaxDepth: 5,
			BranchesPerTree: []int{7, 8, 7, 8}, Seed: 405,
		})
		if err != nil {
			return nil, err
		}
		return &clusterWL{cfg: cfg, forest: f, rng: newRNG(cfg.seed, 2)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want solo, online or cluster)", cfg.workload)
}

func newRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// featureRows draws n feature vectors uniformly over the forest's
// fixed-point range.
func featureRows(rng *rand.Rand, f *copse.Forest, n int) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, f.NumFeatures)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64N(1 << f.Precision)
		}
	}
	return rows
}

// wrongAnswers counts the answers whose per-tree labels or plurality
// differ from the plaintext forest walk.
func wrongAnswers(f *copse.Forest, rows [][]uint64, perTree [][]int, plurality []int) int {
	wrong := 0
	for i, x := range rows {
		want := f.Classify(x)
		if i >= len(perTree) || !slices.Equal(perTree[i], want) ||
			plurality[i] != model.Plurality(want, len(f.Labels)) {
			wrong++
		}
	}
	return wrong
}

func checkResults(f *copse.Forest, rows [][]uint64, res []*copse.Result) int {
	perTree := make([][]int, len(res))
	plur := make([]int, len(res))
	for i, r := range res {
		perTree[i], plur[i] = r.PerTree, r.Plurality()
	}
	return wrongAnswers(f, rows, perTree, plur)
}

// serviceWL is the single-node workloads: solo (closed loop, one query
// per request, batcher off, offload scenario) and online (open loop,
// Poisson arrivals, batcher on, server-model scenario).
type serviceWL struct {
	cfg    runConfig
	forest *copse.Forest
	rng    *rand.Rand
	online bool
	svc    *copse.Service
}

func (w *serviceWL) setupReps() int { return 3 }

func (w *serviceWL) setup() (setupTimes, error) {
	opts := []copse.Option{copse.WithBackend(copse.BackendBGV), copse.WithSecurity(copse.SecurityTest)}
	if w.online {
		opts = append(opts, copse.WithScenario(copse.ScenarioServerModel), copse.WithBatchWindow(onlineWindow))
	} else {
		opts = append(opts, copse.WithScenario(copse.ScenarioOffload))
	}
	t0 := time.Now()
	c, err := copse.Compile(w.forest, copse.CompileOptions{Slots: slots})
	if err != nil {
		return setupTimes{}, fmt.Errorf("compile: %w", err)
	}
	t1 := time.Now()
	svc := copse.NewService(opts...)
	if err := svc.Register(modelName, c); err != nil {
		svc.Close()
		return setupTimes{}, fmt.Errorf("register: %w", err)
	}
	t2 := time.Now()
	w.svc = svc
	return setupTimes{Total: t2.Sub(t0), Compile: t1.Sub(t0), Register: t2.Sub(t1)}, nil
}

func (w *serviceWL) close() {
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
}

func (w *serviceWL) services() []*copse.Service { return []*copse.Service{w.svc} }

func (w *serviceWL) backend() *hebgv.Backend {
	b, _ := w.svc.Backend().(*hebgv.Backend)
	return b
}

func (w *serviceWL) capacity() int {
	n, _ := w.svc.BatchCapacity(modelName) // registered by setup
	return n
}

func (w *serviceWL) gatewayCounts() (int64, int64, error) { return 0, 0, nil }

func (w *serviceWL) warm() error {
	for range 2 {
		var wrong int
		if w.online {
			rows := featureRows(w.rng, w.forest, onlineMaxQ)
			res, err := w.svc.ClassifyBatch(context.Background(), modelName, rows)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			wrong = checkResults(w.forest, rows, res)
		} else {
			r, _ := w.soloRequest(0, nil)
			if r.failed {
				return fmt.Errorf("warm-up request failed")
			}
			wrong = r.wrong
		}
		if wrong > 0 {
			return fmt.Errorf("warm-up: %d wrong answers", wrong)
		}
	}
	return nil
}

func (w *serviceWL) load(d time.Duration, tr *tracer, base int64) *phase {
	if w.online {
		return w.loadOpen(d, tr, base)
	}
	ph := &phase{}
	start := time.Now()
	for id := base; time.Since(start) < d; id++ {
		r, p := w.soloRequest(id, tr)
		ph.reqs = append(ph.reqs, r)
		if p.trace != nil {
			ph.passes = append(ph.passes, p)
		}
	}
	ph.wall = time.Since(start)
	return ph
}

// soloRequest is one closed-loop request through the three public
// calls a client makes: encrypt, classify, decrypt. The request span
// also covers drawing the query, the generator's own work. The
// result's noise budget is read after the request's clock stops.
func (w *serviceWL) soloRequest(id int64, tr *tracer) (request, passInfo) {
	ctx := context.Background()
	r := request{queries: 1}
	gen := time.Now()
	x := featureRows(w.rng, w.forest, 1)[0]
	t0 := time.Now()
	q, err := w.svc.EncryptQuery(modelName, x)
	t1 := time.Now()
	if err != nil {
		r.failed = true
		return r, passInfo{}
	}
	enc, trace, err := w.svc.Classify(ctx, modelName, q)
	t2 := time.Now()
	if err != nil {
		r.failed = true
		return r, passInfo{}
	}
	res, err := w.svc.DecryptResult(modelName, enc)
	t3 := time.Now()
	if err != nil {
		r.failed = true
		return r, passInfo{}
	}
	r.latency, r.encrypt, r.decrypt = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	r.wrong = checkResults(w.forest, [][]uint64{x}, []*copse.Result{res})

	root := tr.add(id, 0, "gen.request", gen, t3)
	tr.add(id, root, "client.encrypt", t0, t1)
	cl := tr.add(id, root, "service.classify", t1, t2)
	tr.addSequence(id, cl, t1, stageNames, stageDurations(trace))
	tr.add(id, root, "client.decrypt", t2, t3)

	return r, passInfo{trace: trace, classify: t2.Sub(t1), noise: resultNoise(w.svc, enc)}
}

var stageNames = []string{"core.compare", "core.reshuffle", "core.levels", "core.accumulate", "core.shuffle"}

func stageDurations(t *copse.Trace) []time.Duration {
	return []time.Duration{t.Compare, t.Reshuffle, t.Levels, t.Accumulate, t.Shuffle}
}

// resultNoise measures the remaining noise budget of a single-pass
// result's carrier; -1 when it cannot be measured.
func resultNoise(svc *copse.Service, enc *copse.EncryptedResult) int {
	op, _, err := enc.Operand()
	if err != nil {
		return -1
	}
	return he.NoiseBudgetOf(svc.Backend(), op)
}

// loadOpen runs the online workload's open loop: one goroutine walks a
// seeded Poisson schedule and starts each request when it falls due;
// every request is timed from its due time.
func (w *serviceWL) loadOpen(d time.Duration, tr *tracer, base int64) *phase {
	n := int(math.Round(w.cfg.rate * d.Seconds()))
	sched := poissonSchedule(w.cfg.seed^uint64(base)<<32, n, d, onlineMinQ, onlineMaxQ)
	batches := make([][][]uint64, n)
	for i, a := range sched {
		batches[i] = featureRows(w.rng, w.forest, a.Queries)
	}
	ph := &phase{reqs: make([]request, n), lags: make([]time.Duration, n)}
	done := make([]time.Time, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		ph.lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := base + int64(i)
			sent := time.Now()
			res, err := w.svc.ClassifyBatch(context.Background(), modelName, batches[i])
			done[i] = time.Now()
			r := request{queries: a.Queries, latency: latencyFromDue(start, a.Due, done[i])}
			if err != nil {
				r.failed = true
			} else {
				r.wrong = checkResults(w.forest, batches[i], res)
			}
			root := tr.add(id, 0, "gen.request", due, done[i])
			tr.add(id, root, "service.classify_batch", sent, done[i])
			ph.reqs[i] = r
		}()
	}
	wg.Wait()
	// The offered window is d; answers still arriving after it stretch
	// the wall time, so a growing backlog lowers throughput.
	ph.wall = d
	for _, t := range done {
		ph.wall = max(ph.wall, t.Sub(start))
	}
	return ph
}

func (w *serviceWL) refPasses(n int) ([]passInfo, error) {
	var out []passInfo
	for range n {
		rows := featureRows(w.rng, w.forest, refBatch)
		q, err := w.svc.EncryptQueryBatch(modelName, rows)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		t0 := time.Now()
		enc, trace, err := w.svc.Classify(context.Background(), modelName, q)
		cl := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		res, err := w.svc.DecryptResultBatch(modelName, enc)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		if wrong := checkResults(w.forest, rows, res); wrong > 0 {
			return nil, fmt.Errorf("reference pass: %d wrong answers", wrong)
		}
		out = append(out, passInfo{trace: trace, classify: cl, noise: resultNoise(w.svc, enc)})
	}
	return out, nil
}

// clusterWL is the sharded workload: a Gateway fronting two in-process
// Workers over loopback HTTP, one shard each, driven closed-loop by one
// client with full-capacity requests.
type clusterWL struct {
	cfg    runConfig
	forest *copse.Forest
	rng    *rand.Rand

	workers   []*cluster.Worker
	servers   []*httptest.Server
	transport *http.Transport
	wire      *countingTransport
	gw        *cluster.Gateway
}

const clusterShards = 2

func (w *clusterWL) setupReps() int { return 2 }

func (w *clusterWL) setup() (setupTimes, error) {
	t0 := time.Now()
	c, err := copse.Compile(w.forest, copse.CompileOptions{Slots: slots})
	if err != nil {
		return setupTimes{}, fmt.Errorf("compile: %w", err)
	}
	shards, manifest, err := copse.ShardForest(c, clusterShards)
	if err != nil {
		return setupTimes{}, fmt.Errorf("shard: %w", err)
	}
	t1 := time.Now()
	urls := make([]string, clusterShards)
	for i := range clusterShards {
		wk := cluster.NewWorker(cluster.WorkerConfig{Seed: w.cfg.seed | 1, IntraOpWorkers: 1})
		w.workers = append(w.workers, wk)
		if err := wk.AddShard(modelName, manifest, shards[i]); err != nil {
			w.close()
			return setupTimes{}, fmt.Errorf("staging shard %d: %w", i, err)
		}
		srv := httptest.NewServer(wk.Handler())
		w.servers = append(w.servers, srv)
		urls[i] = srv.URL
	}
	t2 := time.Now()
	w.transport = &http.Transport{}
	w.wire = &countingTransport{base: w.transport}
	w.gw = cluster.NewGateway(cluster.GatewayConfig{
		Workers:        urls,
		RequestTimeout: time.Minute,
		Client:         &http.Client{Transport: w.wire},
	})
	if err := w.gw.Refresh(context.Background()); err != nil {
		w.close()
		return setupTimes{}, fmt.Errorf("gateway refresh: %w", err)
	}
	t3 := time.Now()
	return setupTimes{Total: t3.Sub(t0), Compile: t1.Sub(t0), Stage: t2.Sub(t1), Refresh: t3.Sub(t2)}, nil
}

func (w *clusterWL) close() {
	if w.gw != nil {
		w.gw.Close()
		w.gw = nil
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
		w.transport = nil
	}
	for _, s := range w.servers {
		s.Close()
	}
	for _, wk := range w.workers {
		wk.Close()
	}
	w.servers, w.workers = nil, nil
}

func (w *clusterWL) services() []*copse.Service {
	out := make([]*copse.Service, len(w.workers))
	for i, wk := range w.workers {
		out[i] = wk.Service()
	}
	return out
}

func (w *clusterWL) backend() *hebgv.Backend {
	b, _ := w.workers[0].Service().Backend().(*hebgv.Backend)
	return b
}

func (w *clusterWL) capacity() int {
	n, _ := w.workers[0].Service().BatchCapacity(shardModel(0)) // staged by setup
	return n
}

// shardModel is the name a worker registers shard i under.
func shardModel(i int) string { return fmt.Sprintf("%s/%d", modelName, i) }

func (w *clusterWL) gatewayCounts() (int64, int64, error) {
	rec := httptest.NewRecorder()
	w.gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Retries int64 `json:"retries"`
		Hedges  int64 `json:"hedges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, 0, fmt.Errorf("reading gateway stats: %w", err)
	}
	return st.Retries, st.Hedges, nil
}

func (w *clusterWL) warm() error {
	r := w.request(0, nil)
	if r.failed || r.wrong > 0 {
		return fmt.Errorf("warm-up request failed or answered wrongly")
	}
	return nil
}

func (w *clusterWL) load(d time.Duration, tr *tracer, base int64) *phase {
	ph := &phase{}
	start := time.Now()
	for id := base; time.Since(start) < d; id++ {
		ph.reqs = append(ph.reqs, w.request(id, tr))
	}
	ph.wall = time.Since(start)
	return ph
}

// request is one closed-loop Gateway.Classify call. With one client
// and no background prober, the workers' pass-latency counters and the
// wire byte counter move only for this request, so their deltas are
// its shard passes and its bytes.
func (w *clusterWL) request(id int64, tr *tracer) request {
	gen := time.Now()
	rows := featureRows(w.rng, w.forest, clusterQueries)
	before := w.passLatencies()
	bytes0 := w.wire.bytes()
	t0 := time.Now()
	res, ft, err := w.gw.Classify(context.Background(), modelName, rows)
	t1 := time.Now()
	r := request{queries: len(rows), latency: t1.Sub(t0)}
	if err != nil {
		r.failed = true
		return r
	}
	after := w.passLatencies()
	for i := range after {
		r.shardPass = max(r.shardPass, after[i]-before[i])
	}
	r.wireBytes = w.wire.bytes() - bytes0
	r.fanout = ft
	perTree := make([][]int, len(res))
	plur := make([]int, len(res))
	for i, d := range res {
		perTree[i], plur[i] = d.PerTree, d.Label
	}
	r.wrong = wrongAnswers(w.forest, rows, perTree, plur)

	root := tr.add(id, 0, "gen.request", gen, t1)
	cl := tr.add(id, root, "cluster.classify", t0, t1)
	names := []string{"cluster.encrypt", "cluster.fanout", "cluster.merge", "cluster.decode"}
	durs := []time.Duration{ft.Encrypt, ft.Fanout, ft.Merge, ft.Decode}
	if ids := tr.addSequence(id, cl, t0, names, durs); tr != nil && ids[1] != 0 {
		// The slowest shard pass runs inside the fan-out.
		at := t0.Add(ft.Encrypt)
		tr.add(id, ids[1], "service.shard_pass", at, at.Add(r.shardPass))
	}
	return r
}

// passLatencies reads each worker's cumulative classification time.
func (w *clusterWL) passLatencies() []time.Duration {
	out := make([]time.Duration, len(w.workers))
	for i, wk := range w.workers {
		out[i] = wk.Service().Stats().Latency
	}
	return out
}

// refPasses runs passes of shard 0 directly on its worker's service:
// the gateway returns decoded answers only, so this is where a
// cluster pass's stage trace and result noise are visible.
func (w *clusterWL) refPasses(n int) ([]passInfo, error) {
	svc := w.workers[0].Service()
	var out []passInfo
	for range n {
		q, err := svc.EncryptQueryBatch(shardModel(0), featureRows(w.rng, w.forest, clusterQueries))
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		t0 := time.Now()
		enc, trace, err := svc.Classify(context.Background(), shardModel(0), q)
		cl := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		out = append(out, passInfo{trace: trace, classify: cl, noise: resultNoise(svc, enc)})
	}
	return out, nil
}

package copse

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/hist"
	"copse/internal/matrix"
)

// Service is the concurrent, batched serving layer: a registry of
// compiled models staged onto one shared backend (one key set), with
// slot-packed multi-query classification and a concurrency contract —
// every method is safe to call from many goroutines.
//
// Where System wires the paper's three notional parties around a single
// model, Service is the deployment shape of the related outsourcing
// work: a server holding several staged models, answering batches of
// up to Meta.BatchCapacity() queries per homomorphic pass, under an
// optional in-flight limit with queue-wait and latency accounting.
//
//	svc := copse.NewService(
//		copse.WithBackend(copse.BackendBGV),
//		copse.WithSecurity(copse.SecurityTest),
//		copse.WithWorkers(8),
//	)
//	svc.Register("fraud", compiled)
//	results, err := svc.ClassifyBatch(ctx, "fraud", batch)
type Service struct {
	cfg serviceConfig

	mu          sync.RWMutex
	backend     he.Backend
	models      map[string]*servedModel
	aggregators map[string]*aggregator // per-model dynamic batchers (lazy)

	sem chan struct{} // in-flight limiter; nil = unlimited

	// closing is closed by Close; runCtx is the lifetime context shared
	// passes run under (a cancelled waiter must not cancel its pass).
	closing   chan struct{}
	closeOnce sync.Once
	runCtx    context.Context
	runCancel context.CancelFunc

	shuffleSeq atomic.Uint64 // per-pass shuffle seed sequence

	requests  atomic.Int64
	queries   atomic.Int64
	failures  atomic.Int64
	inFlight  atomic.Int64
	queueNS   atomic.Int64
	latencyNS atomic.Int64

	// Resilience counters (DESIGN.md §15). queued tracks calls waiting
	// for an in-flight slot (the shed-queue depth); the others are
	// included in Failures.
	queued          atomic.Int64
	shed            atomic.Int64
	deadlineRejects atomic.Int64
	panicsRecovered atomic.Int64

	// Dynamic-batcher counters (DESIGN.md §11).
	aggPasses  atomic.Int64
	aggQueries atomic.Int64
	aggFillNum atomic.Int64
	aggFillDen atomic.Int64
	aggWaitNS  atomic.Int64
}

// servedModel is one registry entry: the compiled model staged onto the
// service backend plus its (stateless, concurrency-safe) engine.
type servedModel struct {
	compiled *Compiled
	operands *core.ModelOperands
	engine   *core.Engine
	latency  *hist.Histogram // per-pass classification latency
}

type serviceConfig struct {
	backend          BackendKind
	scenario         Scenario
	security         SecurityPreset
	workers          int
	intraOpWorkers   int
	maxInFlight      int
	levels           int
	seed             uint64
	reuseRotations   bool
	disableHoisting  bool
	disableLevelPlan bool
	noSpecialize     bool
	shuffle          bool
	measureNoise     bool
	batch            BatchPolicy
	extBackend       he.Backend
	shedQueue        int
}

// Option configures a Service (functional options).
type Option func(*serviceConfig)

// WithBackend selects the homomorphic backend (default BackendBGV).
func WithBackend(k BackendKind) Option { return func(c *serviceConfig) { c.backend = k } }

// WithScenario selects the party configuration governing what is
// encrypted (default ScenarioOffload: model and features both
// encrypted).
func WithScenario(s Scenario) Option { return func(c *serviceConfig) { c.scenario = s } }

// WithSecurity selects the BGV parameter preset (default SecurityTest).
func WithSecurity(p SecurityPreset) Option { return func(c *serviceConfig) { c.security = p } }

// WithWorkers sets the intra-query parallelism of each classification
// (the paper's multithreaded mode): the goroutines one pass spreads its
// independent homomorphic ops across. 1 means single-threaded. The
// default (0) gives each in-flight pass its share of the host,
// max(1, NumCPU / max(maxInFlight, 1)) workers (with no WithMaxInFlight
// cap the budget assumes one pass at a time); the ring-layer limb pool
// (WithIntraOpWorkers) then resolves to serial, because parallelism
// across ops scales better than fan-out inside each op (DESIGN.md §9.2).
func WithWorkers(n int) Option { return func(c *serviceConfig) { c.workers = n } }

// WithIntraOpWorkers sets the ring-layer limb parallelism of the BGV
// backend: every NTT, key switch and modulus switch fans its RNS limbs
// across an n-way worker pool (results are bit-identical to serial).
// The default (0) derives n from a shared core budget — query workers ×
// in-flight passes × limb workers ≤ NumCPU, so the service's layered
// parallelism does not oversubscribe the host (with no WithMaxInFlight
// cap the budget assumes one pass at a time). Under the default query
// workers that leaves no spare cores, so the pool is an opt-in: set it
// explicitly, or pin WithWorkers low enough to leave cores per worker.
// 1 forces serial; n ≥ 2 is used as given (explicit oversubscription is
// allowed, e.g. for tests). The clear backend has no ring layer and
// ignores this option.
func WithIntraOpWorkers(n int) Option { return func(c *serviceConfig) { c.intraOpWorkers = n } }

// WithMaxInFlight caps how many classifications run concurrently;
// excess calls queue (their wait is reported by Stats). 0 means
// unlimited.
func WithMaxInFlight(n int) Option { return func(c *serviceConfig) { c.maxInFlight = n } }

// WithShedQueue bounds how many calls may wait for an in-flight slot
// before the service sheds load: once all WithMaxInFlight slots are
// busy and n calls are already queued, further calls fail immediately
// with a typed *OverloadError (HTTP 429 + Retry-After in copse-serve)
// instead of growing an unbounded backlog of doomed work. 0 (the
// default) queues without bound; the option has no effect without
// WithMaxInFlight.
func WithShedQueue(n int) Option { return func(c *serviceConfig) { c.shedQueue = n } }

// WithLevels overrides the compiler's recommended BGV chain length.
func WithLevels(n int) Option { return func(c *serviceConfig) { c.levels = n } }

// WithSeed makes key generation and encryption deterministic (tests and
// reproducible experiments only — never production). Under WithShuffle
// it also fixes the shuffle-seed sequence, so anyone who knows the seed
// can regenerate every pass's permutations and undo the §7.2.2 leakage
// hardening; shuffled production services must leave the seed zero
// (per-pass random seeds).
func WithSeed(seed uint64) Option { return func(c *serviceConfig) { c.seed = seed } }

// WithReuseRotations toggles the naive-kernel rotation-reuse ablation
// (DESIGN.md §6); BSGS-staged models always share baby-step rotations.
func WithReuseRotations(on bool) Option { return func(c *serviceConfig) { c.reuseRotations = on } }

// WithHoisting toggles hoisted key switching (default on); disabling it
// is the ablation knob of DESIGN.md §6.
func WithHoisting(on bool) Option { return func(c *serviceConfig) { c.disableHoisting = !on } }

// WithLevelPlan toggles static level scheduling (default on): with a
// plan-carrying model, operands are staged at their scheduled levels,
// the engine drops ciphertexts at stage boundaries, and the BGV chain is
// sized to the plan's top instead of the reactive recommendation.
// Disabling it is the -nolevelplan ablation knob of DESIGN.md §8.
func WithLevelPlan(on bool) Option { return func(c *serviceConfig) { c.disableLevelPlan = !on } }

// WithShuffle enables result shuffling (paper §7.2.2) on every
// classification pass: each packed query's leaf slots are permuted by a
// per-pass, per-block random permutation — one block-diagonal kernel
// pass for the whole batch (DESIGN.md §10) — so the decrypted result no
// longer reveals the order of the labels in the forest's trees. Results
// decode through the per-query codebooks carried on the EncryptedResult
// (DecryptResult[Batch] handles this transparently); per-tree labels are
// unrecoverable by design, only vote counts remain. On the BGV backend
// models must be compiled with CompileOptions.PlanShuffle (or served
// reactively) so the classification result keeps the shuffle's level
// headroom — Register rejects models that don't.
func WithShuffle(on bool) Option { return func(c *serviceConfig) { c.shuffle = on } }

// WithSpecialization toggles the model-specialized op-program executor
// (default on): Register compiles each model into a flat op schedule
// and Classify runs it instead of the generic interpreter (DESIGN.md
// §13). Disabling it is the `copse-bench -nospecialize` ablation
// baseline; outputs are bit-identical either way.
func WithSpecialization(on bool) Option { return func(c *serviceConfig) { c.noSpecialize = !on } }

// WithNoiseMeasurement records the decrypt-side measured noise budget of
// the pipeline carrier at every stage boundary in each pass's
// Trace.Noise (the BENCH_levels.json margin corpus). Measurement
// decrypts, so it requires the secret key and costs one decryption per
// stage — a benchmarking knob, not a serving default.
func WithNoiseMeasurement(on bool) Option { return func(c *serviceConfig) { c.measureNoise = on } }

// WithExternalBackend hands the service a pre-built backend instead of
// letting the first Register construct one. This is how cluster worker
// nodes share one wire-distributed key set: every worker builds the
// same hebgv backend from the shard manifest (or from serialized key
// material) and its service stages shard models onto it. The service
// takes ownership — Close closes the backend. The backend must match
// every registered model's slot count; the usual security/levels/seed
// options are ignored for backend construction.
func WithExternalBackend(b he.Backend) Option { return func(c *serviceConfig) { c.extBackend = b } }

// NewService returns an empty service. The backend (and, for BGV, the
// key set) is created by the first Register call, which fixes the slot
// count; every later model must be staged for the same count.
func NewService(opts ...Option) *Service {
	cfg := serviceConfig{backend: BackendBGV, scenario: ScenarioOffload, security: SecurityTest}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Service{
		cfg:         cfg,
		models:      map[string]*servedModel{},
		aggregators: map[string]*aggregator{},
		closing:     make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	return s
}

// newBackend builds the shared backend for a first registered model.
func (s *Service) newBackend(c *Compiled) (he.Backend, error) {
	switch s.cfg.backend {
	case BackendClear:
		return heclear.New(c.Meta.Slots, 65537), nil
	case BackendBGV:
		levels := s.cfg.levels
		if levels == 0 {
			levels = c.Meta.RecommendedLevels
			if plan := c.Meta.LevelPlan; plan != nil && !s.cfg.disableLevelPlan {
				// The scheduled pipeline tops out at the plan's compare
				// entry: a shorter chain means smaller keys, cheaper key
				// generation, and every top-level op running over the
				// fraction of the chain the schedule actually uses.
				if encModel, _, err := scenarioEncryption(s.cfg.scenario); err == nil {
					levels = min(plan.ChainLevels(encModel), levels)
				}
			}
		}
		var params bgv.Params
		switch s.cfg.security {
		case SecurityTest:
			params = bgv.TestParams(levels)
		case SecurityDemo:
			params = bgv.DemoParams(levels)
		case Security128:
			params = bgv.Secure128Params(levels)
		default:
			return nil, fmt.Errorf("copse: unknown security preset %d", s.cfg.security)
		}
		if slots := 1 << (params.LogN - 1); slots != c.Meta.Slots {
			return nil, fmt.Errorf("copse: model staged for %d slots but preset provides %d; recompile with Slots=%d",
				c.Meta.Slots, slots, slots)
		}
		params.IntraOpWorkers = s.intraOpBudget()
		// Galois-key level budget: steps the level plan proves are only
		// rotated in the scheduled-down back half get their keys
		// generated at that stage's level instead of the chain top
		// (several-fold less key material on BSGS step sets; the
		// composed-rotation ladder stays at the top as the fallback for
		// later-registered models with different schedules).
		var stepLevels map[int]int
		if !s.cfg.disableLevelPlan {
			if encModel, _, err := scenarioEncryption(s.cfg.scenario); err == nil {
				stepLevels = c.Meta.RotationStepLevels(encModel)
			}
		}
		return hebgv.New(hebgv.Config{
			Params:             params,
			RotationSteps:      c.Meta.RotationSteps,
			RotationStepLevels: stepLevels,
			Seed:               s.cfg.seed,
		})
	}
	return nil, fmt.Errorf("copse: unknown backend kind %d", s.cfg.backend)
}

// queryWorkers resolves WithWorkers: an explicit setting wins, the
// default gives each in-flight pass an equal share of the host's cores.
func (s *Service) queryWorkers() int {
	if s.cfg.workers > 0 {
		return s.cfg.workers
	}
	return max(1, runtime.NumCPU()/max(s.cfg.maxInFlight, 1))
}

// intraOpBudget resolves WithIntraOpWorkers against the shared core
// budget: an explicit setting wins (1 = serial), the default splits
// NumCPU across the concurrency the service itself creates — query
// workers times the in-flight pass cap — so the layered parallelism
// does not oversubscribe the host. With no in-flight cap the budget
// assumes one pass at a time; servers expecting sustained concurrent
// passes should set WithMaxInFlight (or an explicit intra-op count) to
// keep the product bounded.
func (s *Service) intraOpBudget() int {
	n := s.cfg.intraOpWorkers
	if n == 0 {
		n = runtime.NumCPU() / (s.queryWorkers() * max(s.cfg.maxInFlight, 1))
	}
	if n < 2 {
		return 0 // serial: no pool
	}
	return n
}

// Close releases backend resources (the ring-layer worker pool) and
// stops every dynamic-batcher goroutine, failing any callers still
// lingering in a forming batch; the service must not be used
// afterwards. Safe to call on a service that never registered a model,
// and idempotent.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing) // aggregator goroutines drain and exit
		s.runCancel()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.backend.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Register stages a compiled model under a name, sharing the service's
// backend and key set with every other registered model. The first
// registration creates the backend (generating Galois keys for that
// model's rotation-step set plus the power-of-two ladder, on a modulus
// chain sized to that model's level plan); later models must be staged
// for the same slot count, any rotation step they need beyond the first
// model's key set is composed from power-of-two hops — exact steps, a
// few extra key switches — and a later model needing a deeper chain
// than the first model's plan has its schedule clamped to the available
// top. Register a service's largest/deepest model first to give it the
// exact keys and chain (or fix the chain with WithLevels).
func (s *Service) Register(name string, c *Compiled) error {
	if name == "" {
		return fmt.Errorf("copse: empty model name")
	}
	encryptModel, _, err := scenarioEncryption(s.cfg.scenario)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("copse: model %q already registered", name)
	}
	if s.backend == nil {
		if s.cfg.extBackend != nil {
			s.backend = s.cfg.extBackend
		} else {
			b, err := s.newBackend(c)
			if err != nil {
				return err
			}
			s.backend = b
		}
	}
	if s.backend.Slots() != c.Meta.Slots {
		return fmt.Errorf("copse: model %q staged for %d slots but service backend has %d",
			name, c.Meta.Slots, s.backend.Slots())
	}
	plan := c.Meta.LevelPlan
	if s.cfg.disableLevelPlan {
		plan = nil
	}
	// A shuffled service on a leveled backend needs the classification
	// result to land at (or above) the shuffle's entry level. A schedule
	// compiled without PlanShuffle lands it below, and every shuffled
	// pass would fail — reject the staging mistake up front. Backends
	// without a level structure (the clear reference) shuffle at any
	// level.
	if _, leveled := s.backend.(he.LevelDropper); s.cfg.shuffle && leveled && plan != nil {
		if st := plan.For(encryptModel); st.Final < plan.ShuffleLevel() {
			return fmt.Errorf("copse: model %q schedules its result at level %d, below the shuffle entry level %d; recompile with CompileOptions.PlanShuffle for shuffled serving",
				name, st.Final, plan.ShuffleLevel())
		}
	}
	operands, err := core.PrepareWithPlan(s.backend, c, encryptModel, plan)
	if err != nil {
		return err
	}
	s.models[name] = &servedModel{
		compiled: c,
		operands: operands,
		latency:  hist.New(),
		engine: &core.Engine{
			Backend:           s.backend,
			Workers:           s.queryWorkers(),
			SkipZeroDiagonals: !encryptModel,
			ReuseRotations:    s.cfg.reuseRotations,
			DisableHoisting:   s.cfg.disableHoisting,
			DisableLevelPlan:  s.cfg.disableLevelPlan,
			MeasureNoise:      s.cfg.measureNoise,

			DisableSpecialization: s.cfg.noSpecialize,
		},
	}
	return nil
}

// Models returns the registered model names, sorted.
func (s *Service) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Service) lookup(name string) (*servedModel, he.Backend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	if !ok {
		return nil, nil, fmt.Errorf("copse: model %q not registered", name)
	}
	return m, s.backend, nil
}

// Meta returns the public parameters of a registered model.
func (s *Service) Meta(name string) (*Meta, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return &m.operands.Meta, nil
}

// BatchCapacity returns how many queries one classification pass of the
// named model can answer (Meta.BatchCapacity).
func (s *Service) BatchCapacity(name string) (int, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	return m.operands.Meta.BatchCapacity(), nil
}

// ServerView reports what the evaluating server can infer about the
// named model from artifact shapes alone (the executable form of
// Table 3's leakage).
func (s *Service) ServerView(name string) (core.ServerView, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return core.ServerView{}, err
	}
	return core.InferServerView(m.operands), nil
}

// Backend exposes the shared backend (op counting and diagnostics); nil
// before the first Register.
func (s *Service) Backend() he.Backend {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend
}

// EncryptQuery prepares a single feature vector for the named model.
func (s *Service) EncryptQuery(name string, features []uint64) (*Query, error) {
	return s.EncryptQueryBatch(name, [][]uint64{features})
}

// EncryptQueryBatch slot-packs feature vectors into encrypted query
// sets. Up to BatchCapacity vectors share one set and one Classify
// pass answers all of them; a larger batch is split transparently into
// a chain of capacity-sized sets (Query.Next) which Classify runs as
// ceil(len/capacity) passes — the service boundary never surfaces the
// low-level *core.BatchCapacityError, which remains the contract of
// the single-pass core.PrepareQueryBatch API.
func (s *Service) EncryptQueryBatch(name string, batch [][]uint64) (*Query, error) {
	m, backend, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	_, encFeats, err := scenarioEncryption(s.cfg.scenario)
	if err != nil {
		return nil, err
	}
	meta := &m.operands.Meta
	capacity := meta.BatchCapacity()
	if len(batch) <= capacity {
		return s.prepareBatch(backend, meta, batch, encFeats)
	}
	var head *Query
	var tail *Query
	for lo := 0; lo < len(batch); lo += capacity {
		q, err := s.prepareBatch(backend, meta, batch[lo:min(lo+capacity, len(batch))], encFeats)
		if err != nil {
			return nil, err
		}
		if head == nil {
			head = q
		} else {
			tail.Next = q
		}
		tail = q
	}
	return head, nil
}

// prepareBatch runs one core.PrepareQueryBatch pass with the same
// panic isolation as the classify pipeline: encryption panics — direct
// or recovered inside a matrix worker — surface as a typed
// *InternalError on this request only.
func (s *Service) prepareBatch(backend he.Backend, meta *core.Meta, batch [][]uint64, encFeats bool) (q *Query, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			q = nil
			err = &InternalError{Op: "encrypt", Value: r, Stack: debug.Stack()}
		}
	}()
	q, err = core.PrepareQueryBatch(backend, meta, batch, encFeats)
	var pe *matrix.PanicError
	if errors.As(err, &pe) {
		s.panicsRecovered.Add(1)
		err = &InternalError{Op: "encrypt", Value: pe.Value, Stack: pe.Stack}
	}
	return q, err
}

// Classify runs Algorithm 1 on a prepared (possibly batched) query.
// It is safe to call from many goroutines; with WithMaxInFlight set,
// excess calls queue (cancellable while queued) and the wait shows up
// in Stats. The context is also checked between pipeline stages. A
// query chained across several sets (EncryptQueryBatch of more than
// BatchCapacity vectors) runs one pass per link — concurrently, under
// the in-flight cap — and returns one combined result; the trace then
// aggregates the links (durations and op bills summed).
func (s *Service) Classify(ctx context.Context, name string, q *Query) (*EncryptedResult, *Trace, error) {
	if q.Next == nil {
		return s.classify(ctx, name, q, 0)
	}
	var links []*Query
	for l := q; l != nil; l = l.Next {
		links = append(links, l)
	}
	var shuffleBase uint64
	if s.cfg.shuffle {
		// One seed per link, reserved up front: seeded runs reproduce
		// regardless of which link's goroutine runs first.
		shuffleBase = s.shuffleSeedBlock(len(links))
	}
	workers := len(links)
	if s.cfg.maxInFlight > 0 {
		workers = min(workers, s.cfg.maxInFlight)
	}
	workers = min(workers, runtime.GOMAXPROCS(0))
	encs := make([]*EncryptedResult, len(links))
	traces := make([]*Trace, len(links))
	err := matrix.ParallelFor(len(links), workers, func(i int) error {
		var seed uint64
		if s.cfg.shuffle {
			seed = shuffleBase + uint64(i)*shuffleSeedStride
		}
		enc, trace, err := s.classify(ctx, name, links[i], seed)
		if err != nil {
			return err
		}
		encs[i], traces[i] = enc, trace
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	merged := &EncryptedResult{}
	trace := &Trace{}
	for i, enc := range encs {
		merged.segs = append(merged.segs, enc.segs...)
		addTrace(trace, traces[i])
	}
	return merged, trace, nil
}

// addTrace accumulates one pass's trace into an aggregate: durations
// and op bills sum, limb/noise fields keep the first pass's view.
func addTrace(dst, src *Trace) {
	if src == nil {
		return
	}
	dst.Compare += src.Compare
	dst.Reshuffle += src.Reshuffle
	dst.Levels += src.Levels
	dst.Accumulate += src.Accumulate
	dst.Shuffle += src.Shuffle
	dst.Total += src.Total
	dst.CompareOps = dst.CompareOps.Plus(src.CompareOps)
	dst.ReshuffleOps = dst.ReshuffleOps.Plus(src.ReshuffleOps)
	dst.LevelOps = dst.LevelOps.Plus(src.LevelOps)
	dst.AccumulateOps = dst.AccumulateOps.Plus(src.AccumulateOps)
	dst.ShuffleOps = dst.ShuffleOps.Plus(src.ShuffleOps)
	if dst.Limbs == (core.StageLimbs{}) {
		dst.Limbs = src.Limbs
	}
	if dst.Noise == (core.StageNoise{}) {
		dst.Noise = src.Noise
	}
	if dst.Executor == "" {
		dst.Executor = src.Executor
	}
}

// classify is Classify with an optional shuffle-seed override (0 means
// draw from the service's per-pass sequence) — classifyChunks pins a
// deterministic seed per chunk so seeded multi-chunk batches reproduce
// regardless of which chunk's goroutine runs first.
func (s *Service) classify(ctx context.Context, name string, q *Query, shuffleSeed uint64) (*EncryptedResult, *Trace, error) {
	m, backend, err := s.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	// Deadline fast-fail: once the model has latency history, a request
	// whose remaining budget cannot cover even a typical pass is rejected
	// before any homomorphic work is spent on it (DESIGN.md §15).
	if deadline, ok := ctx.Deadline(); ok {
		if est := passEstimate(m); est > 0 {
			if remaining := time.Until(deadline); remaining < est {
				s.deadlineRejects.Add(1)
				s.failures.Add(1)
				return nil, nil, &DeadlineError{Stage: "admit", Remaining: remaining, Needed: est}
			}
		}
	}
	enqueued := time.Now()
	if err := s.admit(ctx, name, m); err != nil {
		return nil, nil, err
	}
	if s.sem != nil {
		defer func() { <-s.sem }()
	}
	// Requests/Queries count passes that reached execution, so a burst
	// of queued-then-cancelled calls (counted in Failures) does not
	// inflate the throughput counters or dilute the latency means.
	s.requests.Add(1)
	s.queries.Add(int64(max(q.Batch, 1)))
	if s.sem != nil {
		s.queueNS.Add(time.Since(enqueued).Nanoseconds())
	}

	s.inFlight.Add(1)
	start := time.Now()
	op, codebooks, trace, err := s.runPipeline(ctx, backend, m, q, shuffleSeed)
	elapsed := time.Since(start)
	s.latencyNS.Add(elapsed.Nanoseconds())
	m.latency.Observe(elapsed)
	s.inFlight.Add(-1)
	if err != nil {
		s.failures.Add(1)
		return nil, nil, err
	}
	return &EncryptedResult{segs: []resultSeg{{op: op, batch: max(q.Batch, 1), codebooks: codebooks}}}, trace, nil
}

// admit acquires an in-flight slot (when WithMaxInFlight is set),
// shedding load with a typed *OverloadError once the bounded wait
// queue (WithShedQueue) is full. The caller releases the slot.
func (s *Service) admit(ctx context.Context, name string, m *servedModel) error {
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// All slots busy. With a shed bound, joining the queue is
	// conditional on its depth; without one, wait indefinitely (the
	// pre-shedding behaviour).
	if q := s.cfg.shedQueue; q > 0 {
		if cur := s.queued.Add(1); cur > int64(q) {
			s.queued.Add(-1)
			s.shed.Add(1)
			s.failures.Add(1)
			return &OverloadError{Model: name, Queued: q, RetryAfter: s.retryAfter(m)}
		}
	} else {
		s.queued.Add(1)
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.failures.Add(1)
		return ctx.Err()
	}
}

// runPipeline executes one classification pass (and the optional
// shuffle stage) with panic isolation: a panic anywhere in the
// pipeline — the engine, an op-program helper or matrix worker
// goroutine (surfaced as *matrix.PanicError) — fails this request with
// a typed *InternalError instead of killing the process and every other
// in-flight pass with it.
func (s *Service) runPipeline(ctx context.Context, backend he.Backend, m *servedModel, q *Query, shuffleSeed uint64) (op he.Operand, codebooks []*core.ShuffledCodebook, trace *core.Trace, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			op, codebooks, trace = he.Operand{}, nil, nil
			err = &InternalError{Op: "classify", Value: r, Stack: debug.Stack()}
		}
	}()
	op, trace, err = m.engine.ClassifyCtx(ctx, m.operands, q)
	if err == nil && s.cfg.shuffle {
		// The shuffle is a pipeline stage like any other: honour a
		// cancellation that landed during accumulation before paying for
		// the permutation pass.
		if err = ctx.Err(); err == nil {
			if shuffleSeed == 0 {
				shuffleSeed = s.nextShuffleSeed()
			}
			op, codebooks, err = s.shufflePass(backend, m, op, max(q.Batch, 1), shuffleSeed, trace)
		}
	}
	var pe *matrix.PanicError
	if errors.As(err, &pe) {
		s.panicsRecovered.Add(1)
		err = &InternalError{Op: "classify", Value: pe.Value, Stack: pe.Stack}
	}
	return op, codebooks, trace, err
}

// passEstimate is the model's typical per-pass latency (the observed
// p50), or 0 until enough passes have been recorded to trust it.
func passEstimate(m *servedModel) time.Duration {
	snap := m.latency.Snapshot()
	if snap.Count < 4 {
		return 0
	}
	return snap.Quantile(0.50)
}

// retryAfter estimates when a shed caller should try again: the queue
// it would have joined, drained at one typical pass per in-flight slot.
func (s *Service) retryAfter(m *servedModel) time.Duration {
	est := passEstimate(m)
	if est == 0 {
		est = 100 * time.Millisecond
	}
	waves := 1 + s.cfg.shedQueue/max(s.cfg.maxInFlight, 1)
	return time.Duration(waves) * est
}

// shufflePass applies the per-pass result shuffle: one block-diagonal
// permutation pass over every packed query, at the model's scheduled
// shuffle level, under the same stage-worker budget as the pipeline
// (the ring layer's intra-op pool applies through the shared backend).
// Each pass gets a fresh seed, so no two passes share permutations;
// WithSeed makes the seeds deterministic for tests.
func (s *Service) shufflePass(backend he.Backend, m *servedModel, op he.Operand, batch int, seed uint64, trace *core.Trace) (he.Operand, []*core.ShuffledCodebook, error) {
	mark := time.Now()
	counting := he.WithCounts(backend)
	shuffled, codebooks, err := core.ShuffleResultBatch(counting, &m.operands.Meta, op, batch, 0, seed, s.queryWorkers())
	if err != nil {
		return he.Operand{}, nil, fmt.Errorf("copse: result shuffle: %w", err)
	}
	if trace != nil {
		trace.Shuffle = time.Since(mark)
		trace.ShuffleOps = counting.Counts()
		trace.Total += trace.Shuffle
	}
	return shuffled, codebooks, nil
}

// shuffleSeedStride spaces consecutive seeds of the per-pass sequence
// (an odd constant, so the walk covers the whole 2^64 ring).
const shuffleSeedStride = 0x9e3779b97f4a7c15

// nextShuffleSeed returns a fresh per-pass shuffle seed: random by
// default, the next element of a deterministic sequence under WithSeed
// (concurrent direct Classify callers draw in completion order; the
// chunked batch entrypoints reserve a whole block up front instead —
// shuffleSeedBlock — so seeded ClassifyBatch[Shuffled] runs reproduce
// exactly regardless of chunk scheduling).
func (s *Service) nextShuffleSeed() uint64 {
	return s.shuffleSeedBlock(1)
}

// shuffleSeedBlock atomically reserves n consecutive seeds of the
// per-pass sequence and returns the first; the caller derives seed i as
// base + i·shuffleSeedStride. Distinct calls never overlap (the range
// is consumed from the shared counter), so no two passes — chunked or
// direct — share a permutation.
func (s *Service) shuffleSeedBlock(n int) uint64 {
	hi := s.shuffleSeq.Add(uint64(n))
	if s.cfg.seed != 0 {
		return s.cfg.seed + (hi-uint64(n)+1)*shuffleSeedStride
	}
	return rand.Uint64()
}

// DecryptResult decrypts and decodes a single-query classification.
func (s *Service) DecryptResult(name string, r *EncryptedResult) (*Result, error) {
	results, err := s.DecryptResultBatch(name, r)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// DecryptResultBatch decrypts one classification — every pass of a
// chained multi-pass result — and decodes every packed query's result,
// in the order the batch was packed. Shuffled results (WithShuffle)
// decode through their per-query codebooks: the Results carry vote
// counts only — per-tree labels and raw leaf bits are hidden by the
// shuffle, by design.
func (s *Service) DecryptResultBatch(name string, r *EncryptedResult) ([]*Result, error) {
	m, backend, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	meta := &m.operands.Meta
	var out []*Result
	for _, seg := range r.segs {
		slots, err := he.Reveal(backend, seg.op)
		if err != nil {
			return nil, err
		}
		var results []*Result
		if seg.codebooks != nil {
			results, err = core.DecodeShuffledBatch(seg.codebooks, len(meta.LabelNames), slots, meta.BatchBlock())
		} else {
			results, err = core.DecodeResultBatch(meta, slots, max(seg.batch, 1))
		}
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// ClassifyBatch is the end-to-end serving loop: slot-pack the feature
// vectors, run one homomorphic pass, decrypt and decode per-query
// results. Batches larger than the model's capacity are split into
// ceil(len/capacity) passes which run concurrently (the passes are
// independent and Classify is concurrency-safe), bounded by
// WithMaxInFlight when set and by the host's core count otherwise.
func (s *Service) ClassifyBatch(ctx context.Context, name string, batch [][]uint64) ([]*Result, error) {
	results, _, err := s.classifyChunks(ctx, name, batch)
	return results, err
}

// ClassifyBatchShuffled is ClassifyBatch with the shuffled decoding
// surface exposed: alongside each query's decoded Result (vote counts;
// per-tree labels are hidden by the shuffle) it returns the per-query
// ShuffledCodebook the result was decoded through — what a deployment
// hands the data owner together with the shuffled ciphertext. Requires
// WithShuffle.
func (s *Service) ClassifyBatchShuffled(ctx context.Context, name string, batch [][]uint64) ([]*Result, []*ShuffledCodebook, error) {
	if !s.cfg.shuffle {
		return nil, nil, fmt.Errorf("copse: service built without WithShuffle")
	}
	return s.classifyChunks(ctx, name, batch)
}

// classifyChunks is the shared serving loop behind ClassifyBatch and
// ClassifyBatchShuffled: slot-pack, classify, decrypt, decode —
// chunked to the model's capacity, chunks running concurrently. With
// the dynamic batcher enabled (WithBatchWindow/WithBatchPolicy) the
// request is instead enqueued into the model's aggregator, where it
// shares slot-packed passes with every other concurrent caller.
func (s *Service) classifyChunks(ctx context.Context, name string, batch [][]uint64) ([]*Result, []*ShuffledCodebook, error) {
	if len(batch) == 0 {
		return nil, nil, fmt.Errorf("copse: empty batch")
	}
	if agg, err := s.aggregatorFor(name); err != nil {
		return nil, nil, err
	} else if agg != nil {
		return agg.submit(ctx, batch)
	}
	capacity, err := s.BatchCapacity(name)
	if err != nil {
		return nil, nil, err
	}
	chunks := (len(batch) + capacity - 1) / capacity
	workers := chunks
	if s.cfg.maxInFlight > 0 {
		workers = min(workers, s.cfg.maxInFlight)
	}
	workers = min(workers, runtime.GOMAXPROCS(0))
	out := make([]*Result, len(batch))
	var codebooks []*ShuffledCodebook
	var shuffleBase uint64
	if s.cfg.shuffle {
		codebooks = make([]*ShuffledCodebook, len(batch))
		// Reserve one seed per chunk up front: the chunk→seed mapping is
		// then deterministic under WithSeed no matter which chunk's
		// goroutine runs first.
		shuffleBase = s.shuffleSeedBlock(chunks)
	}
	err = matrix.ParallelFor(chunks, workers, func(ci int) error {
		lo := ci * capacity
		hi := min(lo+capacity, len(batch))
		q, err := s.EncryptQueryBatch(name, batch[lo:hi])
		if err != nil {
			return err
		}
		var seed uint64
		if s.cfg.shuffle {
			seed = shuffleBase + uint64(ci)*shuffleSeedStride
		}
		enc, _, err := s.classify(ctx, name, q, seed)
		if err != nil {
			return err
		}
		results, err := s.DecryptResultBatch(name, enc)
		if err != nil {
			return err
		}
		copy(out[lo:hi], results)
		if codebooks != nil {
			copy(codebooks[lo:hi], enc.Codebooks())
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, codebooks, nil
}

// ServiceStats is a snapshot of the serving counters.
type ServiceStats struct {
	// Requests counts Classify passes; Queries counts feature vectors
	// answered (Queries/Requests is the realized batch factor).
	Requests, Queries int64
	// Failures counts classifications that returned an error (including
	// cancellations).
	Failures int64
	// InFlight is the number of passes currently executing.
	InFlight int64
	// QueueWait is the cumulative time requests spent waiting for an
	// in-flight slot; zero without WithMaxInFlight.
	QueueWait time.Duration
	// Queued is the number of calls currently waiting for an in-flight
	// slot (the shed-queue depth).
	Queued int64
	// Shed counts calls rejected with *OverloadError because the
	// WithShedQueue bound was full; included in Failures.
	Shed int64
	// DeadlineRejects counts calls rejected with *DeadlineError because
	// their remaining budget could not cover a typical pass; included in
	// Failures.
	DeadlineRejects int64
	// PanicsRecovered counts panics recovered inside serving goroutines
	// and converted to *InternalError (DESIGN.md §15); the affected
	// requests are included in Failures.
	PanicsRecovered int64
	// Latency is the cumulative classification time (excluding queue
	// wait); Latency/Requests is the mean per-pass latency.
	Latency time.Duration

	// BatcherPasses counts coalesced passes fired by the dynamic
	// batcher (WithBatchWindow); they are also included in Requests.
	BatcherPasses int64
	// CoalescedQueries counts queries answered through the batcher;
	// CoalescedQueries/BatcherPasses is its realized batch factor.
	CoalescedQueries int64
	// BatchFill is the mean fill ratio of batcher passes: queries per
	// pass over the model's batch capacity (1.0 = every pass full).
	BatchFill float64
	// BatchWait is the cumulative time queries lingered in a forming
	// batch before their pass fired.
	BatchWait time.Duration

	// ModelLatency summarizes each registered model's per-pass
	// classification latency distribution, recorded into fixed
	// log-spaced buckets (internal/hist), so snapshots from different
	// times or nodes are directly comparable.
	ModelLatency map[string]LatencyStats
}

// LatencyStats is one model's latency distribution summary: the pass
// count and interpolated p50/p95/p99 over fixed log-spaced buckets.
type LatencyStats struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// MeanLatency returns the mean per-pass classification latency.
func (st ServiceStats) MeanLatency() time.Duration {
	if st.Requests == 0 {
		return 0
	}
	return st.Latency / time.Duration(st.Requests)
}

// MeanQueueWait returns the mean per-pass queue wait.
func (st ServiceStats) MeanQueueWait() time.Duration {
	if st.Requests == 0 {
		return 0
	}
	return st.QueueWait / time.Duration(st.Requests)
}

// MeanBatchWait returns the mean per-query linger in the dynamic
// batcher.
func (st ServiceStats) MeanBatchWait() time.Duration {
	if st.CoalescedQueries == 0 {
		return 0
	}
	return st.BatchWait / time.Duration(st.CoalescedQueries)
}

// Stats snapshots the serving counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Requests:         s.requests.Load(),
		Queries:          s.queries.Load(),
		Failures:         s.failures.Load(),
		InFlight:         s.inFlight.Load(),
		QueueWait:        time.Duration(s.queueNS.Load()),
		Queued:           s.queued.Load(),
		Shed:             s.shed.Load(),
		DeadlineRejects:  s.deadlineRejects.Load(),
		PanicsRecovered:  s.panicsRecovered.Load(),
		Latency:          time.Duration(s.latencyNS.Load()),
		BatcherPasses:    s.aggPasses.Load(),
		CoalescedQueries: s.aggQueries.Load(),
		BatchWait:        time.Duration(s.aggWaitNS.Load()),
	}
	if den := s.aggFillDen.Load(); den > 0 {
		st.BatchFill = float64(s.aggFillNum.Load()) / float64(den)
	}
	s.mu.RLock()
	if len(s.models) > 0 {
		st.ModelLatency = make(map[string]LatencyStats, len(s.models))
		for name, m := range s.models {
			snap := m.latency.Snapshot()
			st.ModelLatency[name] = LatencyStats{
				Count: snap.Count,
				P50:   snap.Quantile(0.50),
				P95:   snap.Quantile(0.95),
				P99:   snap.Quantile(0.99),
			}
		}
	}
	s.mu.RUnlock()
	return st
}

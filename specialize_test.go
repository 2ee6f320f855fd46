package copse_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/he"
	"copse/internal/synth"
)

// specializeScenarios is the full party-configuration corpus; encFeats
// (per scenarioEncryption) decides whether the specialized op-program
// executor can dispatch — a plaintext query (clienteval) stays on the
// generic interpreter by design.
var specializeScenarios = []struct {
	name     string
	scenario copse.Scenario
	encFeats bool
}{
	{"offload", copse.ScenarioOffload, true},
	{"servermodel", copse.ScenarioServerModel, true},
	{"clienteval", copse.ScenarioClientEval, false},
	{"threeparty", copse.ScenarioThreeParty, true},
	{"colludesm", copse.ScenarioColludeSM, true},
	{"colludesd", copse.ScenarioColludeSD, true},
}

func specializeBatch(f *copse.Forest, n int, seed uint64) [][]uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	batch := make([][]uint64, n)
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	return batch
}

// specializeWorkers are the executor worker counts the bit-identity
// suites sweep: serial, the 2-vCPU default, an odd count and more
// workers than a stage has independent ops.
var specializeWorkers = []int{1, 2, 3, 8}

func specializeService(t *testing.T, c *copse.Compiled, kind copse.BackendKind, sc copse.Scenario, shuffled, generic bool, workers int) *copse.Service {
	t.Helper()
	svc := copse.NewService(
		copse.WithBackend(kind),
		copse.WithScenario(sc),
		copse.WithSeed(11),
		copse.WithShuffle(shuffled),
		copse.WithSpecialization(!generic),
		copse.WithWorkers(workers),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// TestSpecializedBitIdentityClear: across every scenario, batch sizes
// B=1 and B=capacity, shuffled and not, and every executor worker count,
// the specialized executor and the generic interpreter decrypt to
// identical results (and both match the plaintext tree walk). The
// traces additionally witness which executor actually ran, and the
// specialized result ciphertext and per-stage op counts are identical
// for every worker count.
func TestSpecializedBitIdentityClear(t *testing.T) {
	f := copse.ExampleForest()
	c := compileExample(t, 64)
	for _, sc := range specializeScenarios {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shuffle=%v", sc.name, shuffled), func(t *testing.T) {
				serial := map[int]passWitness{}
				for _, workers := range specializeWorkers {
					t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
						spec := specializeService(t, c, copse.BackendClear, sc.scenario, shuffled, false, workers)
						gen := specializeService(t, c, copse.BackendClear, sc.scenario, shuffled, true, workers)
						checkSpecializedBatches(t, spec, gen, f, sc.encFeats, shuffled, serial)
					})
				}
			})
		}
	}
}

// checkSpecializedBatches runs B=1 and B=capacity through both services
// and checks each pass against the generic leg, the plaintext walk and
// the serial run's witness (recorded in serial when this is the first
// worker count).
func checkSpecializedBatches(t *testing.T, spec, gen *copse.Service, f *copse.Forest, encFeats, shuffled bool, serial map[int]passWitness) {
	t.Helper()
	capacity, err := spec.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, capacity} {
		batch := specializeBatch(f, b, uint64(b))
		if shuffled {
			rs, _, err := spec.ClassifyBatchShuffled(context.Background(), "m", batch)
			if err != nil {
				t.Fatal(err)
			}
			rg, _, err := gen.ClassifyBatchShuffled(context.Background(), "m", batch)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range batch {
				for lbl := range rs[qi].Votes {
					if rs[qi].Votes[lbl] != rg[qi].Votes[lbl] {
						t.Fatalf("B=%d query %d: specialized votes %v != generic %v",
							b, qi, rs[qi].Votes, rg[qi].Votes)
					}
				}
			}
			continue
		}
		w := compareSpecializedPass(t, spec, gen, f, batch, encFeats)
		if want, ok := serial[b]; !ok {
			serial[b] = w
		} else {
			w.requireEqual(t, want)
		}
	}
}

// passWitness is what a specialized pass must reproduce exactly for any
// executor worker count: the result ciphertext and each stage's op
// counts.
type passWitness struct {
	result he.Operand
	stages [4]he.OpCounts
}

func (w passWitness) requireEqual(t *testing.T, serial passWitness) {
	t.Helper()
	if w.stages != serial.stages {
		t.Errorf("per-stage op counts %+v, serial run %+v", w.stages, serial.stages)
	}
	if !reflect.DeepEqual(w.result, serial.result) {
		t.Error("result ciphertext differs from the serial run's")
	}
}

// compareSpecializedPass runs one batch through both services on the
// trace-carrying path, asserting per-tree bit identity, agreement with
// the plaintext walk, and the expected executor on each leg. It returns
// the specialized leg's witness.
func compareSpecializedPass(t *testing.T, spec, gen *copse.Service, f *copse.Forest, batch [][]uint64, wantSpecialized bool) passWitness {
	t.Helper()
	classify := func(svc *copse.Service) ([]*copse.Result, *copse.Trace, he.Operand) {
		q, err := svc.EncryptQueryBatch("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		enc, trace, err := svc.Classify(context.Background(), "m", q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.DecryptResultBatch("m", enc)
		if err != nil {
			t.Fatal(err)
		}
		op, _, err := enc.Operand()
		if err != nil {
			t.Fatal(err)
		}
		return res[:len(batch)], trace, op
	}
	rs, specTrace, specOp := classify(spec)
	rg, genTrace, _ := classify(gen)
	specExec, genExec := specTrace.Executor, genTrace.Executor
	if genExec != "generic" {
		t.Errorf("generic service ran executor %q", genExec)
	}
	wantExec := "generic"
	if wantSpecialized {
		wantExec = "program"
	}
	if specExec != wantExec {
		t.Errorf("specialized service ran executor %q, want %q", specExec, wantExec)
	}
	for qi, feats := range batch {
		want := f.Classify(feats)
		for ti := range want {
			if rs[qi].PerTree[ti] != want[ti] || rg[qi].PerTree[ti] != want[ti] {
				t.Fatalf("B=%d query %d tree %d: specialized %d, generic %d, plaintext %d",
					len(batch), qi, ti, rs[qi].PerTree[ti], rg[qi].PerTree[ti], want[ti])
			}
		}
	}
	return passWitness{result: specOp, stages: [4]he.OpCounts{
		specTrace.CompareOps, specTrace.ReshuffleOps, specTrace.LevelOps, specTrace.AccumulateOps}}
}

// TestSpecializedBitIdentityBGV repeats the identity check on real
// ciphertexts for the cipher-query scenarios, B=1 and B=capacity, at
// every executor worker count.
func TestSpecializedBitIdentityBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV bit-identity sweep is slow")
	}
	f := copse.ExampleForest()
	c := compileExample(t, 1024)
	for _, sc := range specializeScenarios {
		if sc.name != "offload" && sc.name != "servermodel" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			serial := map[int]passWitness{}
			for _, workers := range specializeWorkers {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					spec := specializeService(t, c, copse.BackendBGV, sc.scenario, false, false, workers)
					gen := specializeService(t, c, copse.BackendBGV, sc.scenario, false, true, workers)
					checkSpecializedBatches(t, spec, gen, f, sc.encFeats, false, serial)
				})
			}
		})
	}
}

// TestSpecializedConcurrentClassify hammers one specialized service
// from many goroutines: the per-classify scratch pool and the
// executor's helper goroutines must stay race-free and bit-exact. Part of
// the CI -race job's named list.
func TestSpecializedConcurrentClassify(t *testing.T) {
	f := copse.ExampleForest()
	c := compileExample(t, 64)
	svc := specializeService(t, c, copse.BackendClear, copse.ScenarioOffload, false, false, 0)
	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				batch := specializeBatch(f, 1, uint64(g*perG+i))
				res, err := svc.ClassifyBatch(context.Background(), "m", batch)
				if err != nil {
					errs <- err
					return
				}
				want := f.Classify(batch[0])
				for ti := range want {
					if res[0].PerTree[ti] != want[ti] {
						errs <- fmt.Errorf("goroutine %d query %d tree %d: %d != %d",
							g, i, ti, res[0].PerTree[ti], want[ti])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpecializePerfSmoke gates the tentpole speedup claim: on the
// depth4 microbenchmark over real BGV ciphertexts, the specialized
// op-program executor must beat the generic interpreter by ≥ 1.15×
// (BENCH_gen.json records the same margin). Gated behind
// COPSE_PERF_SMOKE=1 like the other wall-clock smokes.
func TestSpecializePerfSmoke(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") == "" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the specialization perf smoke")
	}
	var forest *copse.Forest
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == "depth4" {
			f, err := synth.Generate(mb.Spec)
			if err != nil {
				t.Fatal(err)
			}
			forest = f
		}
	}
	if forest == nil {
		t.Fatal("no depth4 microbenchmark")
	}
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Medians over several queries, not a mean over one round: shared
	// CI boxes add multi-hundred-ms noise spikes that a single slow
	// query would otherwise fold into the ratio.
	const queries = 5
	run := func(generic bool) time.Duration {
		sys, err := copse.NewSystem(compiled, copse.SystemConfig{
			Backend: copse.BackendBGV, Scenario: copse.ScenarioOffload,
			Security: copse.SecurityTest, Workers: runtime.GOMAXPROCS(0),
			DisableSpecialization: generic, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Service().Close()
		query, err := sys.Diane.EncryptQuery([]uint64{3, 5})
		if err != nil {
			t.Fatal(err)
		}
		// One warm-up pass (pools, lift caches), then timed queries.
		if _, _, err := sys.Sally.Classify(query); err != nil {
			t.Fatal(err)
		}
		times := make([]time.Duration, queries)
		for i := 0; i < queries; i++ {
			start := time.Now()
			enc, _, err := sys.Sally.Classify(query)
			if err != nil {
				t.Fatal(err)
			}
			times[i] = time.Since(start)
			if _, err := sys.Diane.DecryptResult(enc); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[queries/2]
	}
	generic := run(true)
	specialized := run(false)
	ratio := float64(generic) / float64(specialized)
	t.Logf("generic %v, specialized %v (%.2fx)", generic, specialized, ratio)
	if ratio < 1.15 {
		t.Errorf("specialized executor %.2fx over generic, want >= 1.15x", ratio)
	}
}

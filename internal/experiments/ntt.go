package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"copse"
	"copse/internal/ring"
)

// NTTBench is the machine-readable intra-op parallelism record emitted
// by copse-bench -nttjson (BENCH_ntt.json): ring-kernel ablations
// (serial layer-at-a-time sweeps vs the fused radix-4-style passes vs
// the fused kernel on the limb worker pool), the end-to-end classify
// ablation with bit-exactness between the serial and parallel paths,
// the Galois-key material before/after the level budget, and — when the
// offline flag is set — the Security128 (N=32768) end-to-end record.
type NTTBench struct {
	// Provenance: the record is meaningless without the machine it was
	// measured on. KernelVariant names the transform backend the package
	// default selected ("avx512", "avx2" or "scalar-fused"); WorkersExceedCPUs
	// flags pool settings that oversubscribe the host, where the
	// parallel columns measure contention rather than speedup.
	CPUs              int    `json:"cpus"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	CPUModel          string `json:"cpu_model,omitempty"`
	KernelVariant     string `json:"kernel_variant"`
	Workers           int    `json:"workers"` // pool concurrency used for the parallel ablations
	WorkersExceedCPUs bool   `json:"workers_exceed_cpus,omitempty"`

	// Kernels are the ring microbenchmarks, per LogN × limb count.
	Kernels []NTTKernelCase `json:"kernels"`

	// Classify is the end-to-end serial-vs-parallel ablation.
	Classify NTTClassify `json:"classify"`

	// KeyMaterial is the Galois-key budget record.
	KeyMaterial NTTKeyMaterial `json:"key_material"`

	// Secure128 is the offline N=32768 record; nil unless -secure128.
	Secure128 *Secure128Run `json:"secure128,omitempty"`
}

// NTTKernelCase times one full-poly forward+inverse transform pair.
type NTTKernelCase struct {
	LogN  int `json:"logN"`
	Limbs int `json:"limbs"`
	// SerialUS is the unfused layer-at-a-time reference
	// (NTTGeneric/INTTGeneric), FusedUS the fused-pass scalar kernel,
	// VectorUS the SIMD kernel where the host has one (equal to the
	// fused scalar path otherwise), ParallelUS the default kernel with
	// limbs fanned across the pool. The harness asserts the vector and
	// scalar transforms are bit-identical before timing them.
	SerialUS   float64 `json:"serial_us"`
	FusedUS    float64 `json:"fused_us"`
	VectorUS   float64 `json:"vector_us"`
	ParallelUS float64 `json:"parallel_us"`
	// FusedSpeedup is serial/fused, VectorSpeedup fused/vector (the
	// SIMD win over the scalar fused kernel), ParallelSpeedup
	// serial/parallel.
	FusedSpeedup    float64 `json:"fused_speedup"`
	VectorSpeedup   float64 `json:"vector_speedup"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// NTTClassify compares one BGV model's classification latency between
// the serial and pool-attached ring layer, and records that the two
// paths decrypt to bit-identical leaf vectors for every query.
type NTTClassify struct {
	Model   string `json:"model"`
	Queries int    `json:"queries"`
	// SerialMS is a single-threaded ring layer with the default kernel
	// variant; NoVecMS the same run with the vector kernels disabled
	// (the -novec ablation; equal to SerialMS on scalar-only hosts);
	// ParallelMS the default kernels with the limb pool attached.
	SerialMS        float64 `json:"serial_ms"`
	NoVecMS         float64 `json:"novec_ms"`
	ParallelMS      float64 `json:"parallel_ms"`
	ParallelWorkers int     `json:"parallel_workers"`
	KernelVariant   string  `json:"kernel_variant"`
	// VectorSpeedup is NoVecMS/SerialMS: the end-to-end classify win
	// from the vector kernels alone.
	VectorSpeedup float64 `json:"vector_speedup"`
	Identical     bool    `json:"identical"` // leaf bitvectors bit-exact across paths
}

// NTTKeyMaterial reports evaluation-key bytes with the level budget
// (back-half steps generated at their stage level) against the all-at-
// top baseline.
type NTTKeyMaterial struct {
	Model        string  `json:"model"`
	LeveledBytes int64   `json:"leveled_bytes"`
	TopBytes     int64   `json:"top_bytes"`
	Savings      float64 `json:"savings"` // 1 − leveled/top
}

// Secure128Run is the scheduled/offline Security128 (N=32768)
// end-to-end record the ROADMAP has carried as untimed.
type Secure128Run struct {
	Model      string  `json:"model"`
	LogN       int     `json:"logN"`
	Levels     int     `json:"levels"`
	Workers    int     `json:"workers"`
	KeygenMS   float64 `json:"keygen_ms"`
	ClassifyMS float64 `json:"classify_ms"`
	Correct    bool    `json:"correct"`
}

// keyMaterialBackend is the diagnostic surface hebgv.Backend exposes.
type keyMaterialBackend interface {
	KeyMaterial() (actual, topLevel int64)
}

// NTTReport measures the intra-op parallelism record. workers sets the
// pool concurrency for the parallel ablations (0 picks
// max(2, NumCPU) so the pool machinery is exercised even on small
// hosts); secure128 additionally runs the offline N=32768 case.
func NTTReport(cfg Config, workers int, secure128 bool) (*NTTBench, error) {
	cfg = cfg.withDefaults()
	if workers <= 0 {
		workers = max(2, runtime.NumCPU())
	}
	report := &NTTBench{
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		CPUModel:          cpuModelName(),
		KernelVariant:     ring.KernelVariant(),
		Workers:           workers,
		WorkersExceedCPUs: workers > runtime.NumCPU(),
	}

	if err := nttKernelBench(report, workers); err != nil {
		return nil, err
	}
	if err := nttClassifyBench(report, cfg, workers); err != nil {
		return nil, err
	}
	if secure128 {
		run, err := secure128Bench(cfg)
		if err != nil {
			return nil, err
		}
		report.Secure128 = run
	}
	return report, nil
}

// nttKernelBench times the four kernel configurations per LogN × limbs:
// unfused scalar, fused scalar, vector (where the host has one), and
// the default kernel on the limb pool. Before timing, it asserts the
// vector and scalar transforms agree bit-for-bit on the benchmark
// input.
func nttKernelBench(report *NTTBench, workers int) error {
	const t = 65537
	for _, logN := range []int{11, 12, 13, 15} {
		n := 1 << logN
		for _, limbs := range []int{2, 8, 12} {
			primes, err := ring.GeneratePrimes(55, uint64(2*n)*t, limbs)
			if err != nil {
				return fmt.Errorf("experiments: primes for logN=%d: %w", logN, err)
			}
			// scalarCtx pins the fused scalar kernels (built with the
			// package default held at scalar); vecCtx keeps the default
			// (the vector backend where the host has one); parCtx
			// attaches the limb pool to the default kernels.
			restore := ring.SetVectorKernels(false)
			scalarCtx, err := ring.NewContext(logN, primes, t)
			restore()
			if err != nil {
				return err
			}
			vecCtx, err := ring.NewContext(logN, primes, t)
			if err != nil {
				return err
			}
			parCtx, err := ring.NewContext(logN, primes, t)
			if err != nil {
				return err
			}
			parCtx.SetWorkers(ring.NewWorkers(workers))
			src := ring.NewSeededSampler(scalarCtx, 42).UniformPoly(limbs-1, false)

			// Bit-identity gate: the vector path must reproduce the
			// scalar transform exactly before its timings mean anything.
			want, got := src.Copy(), src.Copy()
			scalarCtx.NTT(want)
			vecCtx.NTT(got)
			for i := range want.Coeffs {
				for j := range want.Coeffs[i] {
					if want.Coeffs[i][j] != got.Coeffs[i][j] {
						return fmt.Errorf("experiments: vector NTT diverges from scalar at logN=%d limb=%d coeff=%d", logN, i, j)
					}
				}
			}
			scalarCtx.INTT(want)
			vecCtx.INTT(got)
			for i := range want.Coeffs {
				for j := range want.Coeffs[i] {
					if want.Coeffs[i][j] != got.Coeffs[i][j] {
						return fmt.Errorf("experiments: vector INTT diverges from scalar at logN=%d limb=%d coeff=%d", logN, i, j)
					}
				}
			}

			serial := medianTransformUS(src, func(p *ring.Poly) {
				for i := range p.Coeffs {
					scalarCtx.Moduli[i].NTTGeneric(p.Coeffs[i])
				}
				for i := range p.Coeffs {
					scalarCtx.Moduli[i].INTTGeneric(p.Coeffs[i])
				}
			})
			fused := medianTransformUS(src, func(p *ring.Poly) {
				for i := range p.Coeffs {
					scalarCtx.Moduli[i].NTT(p.Coeffs[i])
				}
				for i := range p.Coeffs {
					scalarCtx.Moduli[i].INTT(p.Coeffs[i])
				}
			})
			vector := medianTransformUS(src, func(p *ring.Poly) {
				for i := range p.Coeffs {
					vecCtx.Moduli[i].NTT(p.Coeffs[i])
				}
				for i := range p.Coeffs {
					vecCtx.Moduli[i].INTT(p.Coeffs[i])
				}
			})
			parallel := medianTransformUS(src, func(p *ring.Poly) {
				parCtx.NTT(p)
				parCtx.INTT(p)
			})
			parCtx.CloseWorkers()
			report.Kernels = append(report.Kernels, NTTKernelCase{
				LogN:            logN,
				Limbs:           limbs,
				SerialUS:        serial,
				FusedUS:         fused,
				VectorUS:        vector,
				ParallelUS:      parallel,
				FusedSpeedup:    serial / fused,
				VectorSpeedup:   fused / vector,
				ParallelSpeedup: serial / parallel,
			})
		}
	}
	return nil
}

// cpuModelName reads the host CPU model string from /proc/cpuinfo
// (empty on platforms without one); benchmark provenance only.
func cpuModelName() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, found := strings.Cut(rest, ":"); found {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// medianTransformUS times fn over fresh copies of src, returning the
// median in microseconds.
func medianTransformUS(src *ring.Poly, fn func(*ring.Poly)) float64 {
	const reps = 9
	times := make([]time.Duration, reps)
	for r := 0; r < reps; r++ {
		p := src.Copy()
		start := time.Now()
		fn(p)
		times[r] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return float64(times[reps/2].Nanoseconds()) / 1e3
}

// nttClassifyBench runs the end-to-end serial/parallel ablation on the
// depth4 micro model (BGV backend) and records key-material bytes.
func nttClassifyBench(report *NTTBench, cfg Config, workers int) error {
	const model = "depth4"
	queries := min(cfg.Queries, 8)
	cases, err := MicroCases()
	if err != nil {
		return err
	}
	var cs *Case
	for i := range cases {
		if cases[i].Name == model {
			cs = &cases[i]
			break
		}
	}
	if cs == nil {
		return fmt.Errorf("experiments: micro case %q not found", model)
	}
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		return err
	}
	security, err := securityFor(cs.Slots)
	if err != nil {
		return err
	}

	run := func(intra int, novec bool) (float64, [][]uint64, error) {
		// The ring context captures the package kernel default when the
		// system builds it; the no-vector run pins scalar kernels for
		// that build only.
		restore := func() {}
		if novec {
			restore = ring.SetVectorKernels(false)
		}
		sys, err := copse.NewSystem(compiled, copse.SystemConfig{
			Backend:        copse.BackendBGV,
			Scenario:       copse.ScenarioOffload,
			Security:       security,
			IntraOpWorkers: intra,
			Seed:           cfg.Seed + 100,
		})
		restore()
		if err != nil {
			return 0, nil, err
		}
		defer sys.Service().Close()
		if intra > 1 {
			if km, ok := sys.Backend().(keyMaterialBackend); ok {
				actual, top := km.KeyMaterial()
				report.KeyMaterial = NTTKeyMaterial{
					Model:        model,
					LeveledBytes: actual,
					TopBytes:     top,
					Savings:      1 - float64(actual)/float64(top),
				}
			}
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xf00d))
		var times []time.Duration
		var leafBits [][]uint64
		for qi := 0; qi < queries; qi++ {
			feats := randomFeatures(rng, cs.Forest.NumFeatures, cs.Forest.Precision)
			query, err := sys.Diane.EncryptQuery(feats)
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			enc, _, err := sys.Sally.Classify(query)
			if err != nil {
				return 0, nil, fmt.Errorf("experiments: %s query %d: %w", model, qi, err)
			}
			times = append(times, time.Since(start))
			res, err := sys.Diane.DecryptResult(enc)
			if err != nil {
				return 0, nil, err
			}
			leafBits = append(leafBits, res.LeafBits)
			want := cs.Forest.Classify(feats)
			for ti := range want {
				if res.PerTree[ti] != want[ti] {
					return 0, nil, fmt.Errorf("experiments: %s query %d tree %d: secure %d != plaintext %d",
						model, qi, ti, res.PerTree[ti], want[ti])
				}
			}
		}
		return medianMS(times), leafBits, nil
	}

	serialMS, serialBits, err := run(1, false)
	if err != nil {
		return err
	}
	novecMS, novecBits, err := run(1, true)
	if err != nil {
		return err
	}
	parallelMS, parallelBits, err := run(workers, false)
	if err != nil {
		return err
	}
	sameBits := func(a, b [][]uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for qi := range a {
			if len(a[qi]) != len(b[qi]) {
				return false
			}
			for j := range a[qi] {
				if a[qi][j] != b[qi][j] {
					return false
				}
			}
		}
		return true
	}
	identical := sameBits(serialBits, parallelBits) && sameBits(serialBits, novecBits)
	report.Classify = NTTClassify{
		Model:           model,
		Queries:         queries,
		SerialMS:        serialMS,
		NoVecMS:         novecMS,
		ParallelMS:      parallelMS,
		ParallelWorkers: workers,
		KernelVariant:   ring.KernelVariant(),
		VectorSpeedup:   novecMS / serialMS,
		Identical:       identical,
	}
	if !identical {
		return fmt.Errorf("experiments: serial, no-vector and parallel classifications are not bit-identical")
	}
	return nil
}

// secure128Bench runs the long-untimed Security128 (N=32768) case once:
// key generation plus one end-to-end classify, verified against the
// plaintext walk.
func secure128Bench(cfg Config) (*Secure128Run, error) {
	const model = "depth4"
	cases, err := MicroCases()
	if err != nil {
		return nil, err
	}
	var forest *Case
	for i := range cases {
		if cases[i].Name == model {
			forest = &cases[i]
			break
		}
	}
	if forest == nil {
		return nil, fmt.Errorf("experiments: micro case %q not found", model)
	}
	const slots = 16384
	compiled, err := copse.Compile(forest.Forest, copse.CompileOptions{Slots: slots})
	if err != nil {
		return nil, err
	}
	workers := max(2, runtime.NumCPU())
	start := time.Now()
	sys, err := copse.NewSystem(compiled, copse.SystemConfig{
		Backend:        copse.BackendBGV,
		Scenario:       copse.ScenarioOffload,
		Security:       copse.Security128,
		IntraOpWorkers: workers,
		Seed:           cfg.Seed + 100,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Service().Close()
	keygenMS := float64(time.Since(start).Nanoseconds()) / 1e6

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5128))
	feats := randomFeatures(rng, forest.Forest.NumFeatures, forest.Forest.Precision)
	query, err := sys.Diane.EncryptQuery(feats)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	enc, _, err := sys.Sally.Classify(query)
	if err != nil {
		return nil, fmt.Errorf("experiments: secure128 classify: %w", err)
	}
	classifyMS := float64(time.Since(start).Nanoseconds()) / 1e6
	res, err := sys.Diane.DecryptResult(enc)
	if err != nil {
		return nil, err
	}
	correct := true
	for ti, want := range forest.Forest.Classify(feats) {
		if res.PerTree[ti] != want {
			correct = false
		}
	}
	levels := compiled.Meta.RecommendedLevels
	if compiled.Meta.LevelPlan != nil {
		levels = compiled.Meta.LevelPlan.ChainLevels(true)
	}
	return &Secure128Run{
		Model:      model,
		LogN:       15,
		Levels:     levels,
		Workers:    workers,
		KeygenMS:   keygenMS,
		ClassifyMS: classifyMS,
		Correct:    correct,
	}, nil
}

// WriteJSON writes the report, indented for diff-friendliness.
func (r *NTTBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

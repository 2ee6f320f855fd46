// Command perfbench is the end-to-end benchmark of COPSE serving. It is
// a single-process load generator that drives the public API — Compile,
// Service, and the cluster Gateway/Worker pair — on one named workload,
// checks every answer against the plaintext forest walk, and prints one
// JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solo --seed 1 --seconds 20 --trace 0
//
// --workload all runs solo, online and cluster one after another, each
// in a process of its own so peak memory stays per workload, and exits
// non-zero if any of them does.
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json. With --trace 1 the run splits its time into an
// untraced and a traced phase and reports the per-layer metrics: span
// self times, stage breakdowns, BGV and ring unit costs taken on the
// live backend after the load, and the tracing overhead. Spans and the
// full record are written to .bench_build/perfbench/.
//
// The workloads' latency limits and the online offered rate are read
// from the "why" lines of BENCHMARK.json, so they are fixed in one
// place. PREDICTIONS.md states which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"copse/internal/ring"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// limit is the workload's latency limit for slo_frac; rate is the
	// online workload's offered load in requests per second.
	limit time.Duration
	rate  float64
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: solo, online, cluster, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: queries and arrivals derive from it")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	if *workload == "all" {
		return runAll()
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceOn == 1,
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := readLimits("BENCHMARK.json", &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	prov := provenance(cfg)
	rec, err := execute(cfg, w, prov)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeRecord(cfg, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
		return 1
	}
	emit(map[string]any{"provenance": rec.Provenance})
	emit(map[string]any{"record": rec.Summary})
	emit(rec.Result)
	if !rec.Result.Correct {
		for _, p := range rec.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
		}
		return 1
	}
	return 0
}

// workloads are the names newWorkload knows, in the order "all" runs
// them.
var workloads = []string{"solo", "online", "cluster"}

// runAll re-runs this program once per workload with the same flags and
// returns 1 if any run failed.
func runAll() int {
	status := 0
	for _, name := range workloads {
		args := []string{"--workload", name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// emit prints one JSON line on standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, numbers and strings are emitted
	}
	fmt.Println(string(b))
}

// limitRE and rateRE read "limit <n> ms" and "offered <r> req/s" from a
// workload's why line.
var (
	limitRE = regexp.MustCompile(`limit (\d+) ms`)
	rateRE  = regexp.MustCompile(`offered (\d+(?:\.\d+)?) req/s`)
)

// readLimits loads the workload's latency limit (and, for the open
// loop, the offered rate) from the benchmark definition.
func readLimits(path string, cfg *runConfig) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading benchmark definition: %w", err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, wl := range def.Workloads {
		if wl.Name != cfg.workload {
			continue
		}
		m := limitRE.FindStringSubmatch(wl.Why)
		if m == nil {
			return fmt.Errorf("%s: workload %q states no latency limit", path, wl.Name)
		}
		n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
		cfg.limit = time.Duration(n) * time.Millisecond
		if r := rateRE.FindStringSubmatch(wl.Why); r != nil {
			cfg.rate, _ = strconv.ParseFloat(r[1], 64)
		}
		return nil
	}
	return fmt.Errorf("%s: no workload %q", path, cfg.workload)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run learned: the result line, the
// provenance, a summary with the sample counts behind each figure,
// the gate's problems, and (traced runs) the spans.
type record struct {
	Provenance map[string]any `json:"provenance"`
	Summary    map[string]any `json:"summary"`
	Problems   []string       `json:"problems,omitempty"`
	Result     result         `json:"result"`
	Spans      []span         `json:"spans,omitempty"`
}

// outDir is where records and spans are written, inside the build
// directory the repository ignores.
const outDir = ".bench_build/perfbench"

func writeRecord(cfg runConfig, rec *record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance is the header every record carries.
func provenance(cfg runConfig) map[string]any {
	commit, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"commit":         commit,
		"commit_dirty":   modified,
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"kernel_variant": ring.KernelVariant(),
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"trace":          cfg.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown"
// where that is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	m := regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`).FindSubmatch(data)
	if m == nil {
		return "unknown"
	}
	return string(m[1])
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

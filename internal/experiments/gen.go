package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"copse"
)

// GenBench is the specialization record emitted by copse-bench -genjson
// (BENCH_gen.json): per-model latency of the specialized op-program
// executor against the generic interpreter on the *same* query corpus,
// with bit-identity of the decrypted results asserted (DESIGN.md §13).
type GenBench struct {
	Backend string    `json:"backend"`
	Queries int       `json:"queries"`
	Seed    uint64    `json:"seed"`
	Cases   []GenCase `json:"cases"`
}

// GenCase is one model's specialized-vs-generic measurement.
type GenCase struct {
	Name string `json:"name"`
	// Executor is the dispatch the specialized leg actually took
	// ("program").
	Executor string `json:"executor"`
	// Median Classify latency per leg, identical query corpus.
	GenericMS     float64 `json:"generic_ms"`
	SpecializedMS float64 `json:"specialized_ms"`
	// Speedup is generic/specialized median latency.
	Speedup float64 `json:"speedup"`
	// BitIdentical: every query decrypted to the same per-tree labels
	// under both executors (and matched the plaintext tree walk — the
	// runner asserts that on every leg). Always true in an emitted
	// report; a mismatch fails the report instead.
	BitIdentical bool `json:"bit_identical"`
}

// GenReport measures every configured model under both executors. Any
// bit divergence between the legs — or between either leg and the
// plaintext walk — is an error, not a report entry.
func GenReport(cfg Config) (*GenBench, error) {
	cfg = cfg.withDefaults()
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, err
	}
	report := &GenBench{Backend: cfg.Backend, Queries: cfg.Queries, Seed: cfg.Seed}
	for _, cs := range cases {
		gc := GenCase{Name: cs.Name}
		var results [2][][]int
		var medians [2]float64
		for leg, noSpec := range []bool{true, false} {
			runCfg := cfg
			runCfg.NoSpecialize = noSpec
			r, err := newCopseRunner(cs, runCfg, defaultWorkers(cfg), copse.ScenarioOffload)
			if err != nil {
				return nil, err
			}
			times, traces, res, err := r.runCollect(cfg.Queries, cfg.Seed)
			r.close()
			if err != nil {
				return nil, err
			}
			medians[leg] = medianMS(times)
			results[leg] = res
			if !noSpec && len(traces) > 0 {
				gc.Executor = traces[len(traces)-1].Executor
			}
		}
		if len(results[0]) != len(results[1]) {
			return nil, fmt.Errorf("experiments: %s: leg corpus sizes diverge", cs.Name)
		}
		for qi := range results[0] {
			for ti := range results[0][qi] {
				if results[0][qi][ti] != results[1][qi][ti] {
					return nil, fmt.Errorf("experiments: %s query %d tree %d: generic %d != specialized %d",
						cs.Name, qi, ti, results[0][qi][ti], results[1][qi][ti])
				}
			}
		}
		gc.BitIdentical = true
		gc.GenericMS, gc.SpecializedMS = medians[0], medians[1]
		if gc.SpecializedMS > 0 {
			gc.Speedup = gc.GenericMS / gc.SpecializedMS
		}
		report.Cases = append(report.Cases, gc)
	}
	return report, nil
}

// WriteJSON writes the report, indented for diff-friendliness.
func (r *GenBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

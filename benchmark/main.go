// Command retrasyn-bench is the repository benchmark. It runs one named
// workload against the RetraSyn system, checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash benchmark/run.sh --workload sj-http --seed 1 --seconds 15 --trace 0
//
// A run generates its inputs from --seed before any system is built (input
// generation is the load generator's cost and is never timed as the
// system), then replays the whole input stream, one fresh system per replay,
// until the replays have taken --seconds. Every replay is a closed loop: the
// protocol cannot plan timestamp t+1 before t is finalized.
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the run makes one untraced pass and one traced pass. The traced pass times
// the benchmark's own calls into each layer's public functions, keeps the
// spans in memory and writes them to <state-dir>/traces at the end. The
// result then holds the per-layer metrics: each *_ms value is the mean per
// round of that layer's time on the round's critical path, so the layer
// times plus round.unaccounted_ms add up to round.wall_ms.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured replay time per pass (at least one whole replay runs)")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass, 0 = end-to-end metrics")
	flag.StringVar(&cfg.stateDir, "state-dir", ".bench_build", "directory for cached inputs, release digests and traces")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (want %s)", cfg.workload, workloadNames()))
	}
	cfg.shape = w.shape
	res, err := run(w, cfg, os.Stdout)
	if res != nil {
		if perr := printResult(os.Stdout, res); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "retrasyn-bench:", err)
	os.Exit(1)
}

// config is one invocation's settings. shape is the workload's input and
// system configuration; tests shrink it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	stateDir string
	shape    shape
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes a readable metric table, then the JSON result as the
// last line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// run executes one invocation. It returns a result whenever the system was
// exercised, with Correct false when a call failed or an output check did
// not hold; the error then says why.
func run(w workload, cfg config, stdout io.Writer) (*result, error) {
	in, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("preparing %s inputs: %w", w.name, err)
	}
	o := newOps()
	p, err := measure(w, in, cfg, o, nil)
	var traced *pass
	if err == nil && cfg.trace {
		tr := newTracer()
		traced, err = measure(w, in, cfg, o, tr)
		traced.base = p
		if err == nil {
			err = tr.write(cfg.traceFile())
		}
	}
	if err == nil {
		err = w.verify(in, cfg, o, p, traced)
	}
	res := &result{Correct: err == nil, Attempted: o.attempted(), Failed: o.failed(), Metrics: map[string]metric{}}
	switch {
	case err != nil:
	case cfg.trace:
		res.Metrics = traced.layerMetrics()
	default:
		res.Metrics = p.endToEnd()
	}
	blob, jerr := json.Marshal(newRecord(w, cfg, in, o, p, traced))
	if jerr != nil {
		return res, errors.Join(err, jerr)
	}
	fmt.Fprintf(stdout, "record %s\n", blob)
	return res, err
}

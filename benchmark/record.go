package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEndDefs are printed with --trace 0.
var endToEndDefs = []metricDef{
	{"events_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"setup_s", "s"},
	{"retained_heap_mb", "MB"},
	{"density_error", "JSD"},
	{"query_error", "ratio"},
}

// perLayer are printed with --trace 1. *_ms values are means per traced
// round; wire and count values are per replay.
var perLayer = []metricDef{
	{"round.wall_ms", "ms"},
	{"round.unaccounted_ms", "ms"},
	{"round.unaccounted_pct", "%"},
	{"trace.overhead_ms", "ms"},
	{"device.perturb_ms", "ms"},
	{"device.reports", "count"},
	{"gateway.presence_ms", "ms"},
	{"gateway.assignments_ms", "ms"},
	{"gateway.report_ms", "ms"},
	{"gateway.plan_ms", "ms"},
	{"gateway.finalize_ms", "ms"},
	{"transport.presence_ms", "ms"},
	{"transport.assignments_ms", "ms"},
	{"transport.report_ms", "ms"},
	{"transport.plan_ms", "ms"},
	{"transport.finalize_ms", "ms"},
	{"wire.presence.bytes_in", "B"},
	{"wire.presence.bytes_out", "B"},
	{"wire.assignments.bytes_in", "B"},
	{"wire.assignments.bytes_out", "B"},
	{"wire.report.bytes_in", "B"},
	{"wire.report.bytes_out", "B"},
	{"wire.plan.bytes_in", "B"},
	{"wire.plan.bytes_out", "B"},
	{"wire.finalize.bytes_in", "B"},
	{"wire.finalize.bytes_out", "B"},
	{"wire.bytes_per_event", "B/event"},
	{"curator.presence_ms", "ms"},
	{"curator.plan_ms", "ms"},
	{"curator.assignments_ms", "ms"},
	{"curator.report_ms", "ms"},
	{"curator.finalize_ms", "ms"},
	{"curator.model_ms", "ms"},
	{"curator.dmu_ms", "ms"},
	{"curator.synthesis_ms", "ms"},
	{"curator.finalize_rest_ms", "ms"},
	{"engine.round_ms", "ms"},
	{"engine.user_side_ms", "ms"},
	{"engine.model_ms", "ms"},
	{"engine.dmu_ms", "ms"},
	{"engine.synthesis_ms", "ms"},
	{"engine.adapt_ms", "ms"},
	{"relayout.migrations", "count"},
	{"relayout.migration_round_ms", "ms"},
	{"monitor.alarms", "count"},
}

// record is the run's context, printed on a "record" line before the
// result: host, configuration, input, sample counts, call accounting and
// the release identity.
type record struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Seconds  float64             `json:"seconds"`
	Trace    bool                `json:"trace"`
	Host     hostInfo            `json:"host"`
	Shape    shapeRecord         `json:"shape"`
	Input    inputRecord         `json:"input"`
	Pass     *passRecord         `json:"pass,omitempty"`
	Traced   *traceRecord        `json:"traced,omitempty"`
	Ops      map[string]opRecord `json:"ops"`
	// FailedOpRatio is failed over attempted calls across every layer.
	FailedOpRatio float64 `json:"failed_op_ratio"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type shapeRecord struct {
	Dataset  string  `json:"dataset"`
	Scale    float64 `json:"scale"`
	Users    int     `json:"users"`
	Events   int64   `json:"events"`
	T        int     `json:"T"`
	Domain   int     `json:"domain"`
	K        int     `json:"k"`
	Epsilon  float64 `json:"epsilon"`
	W        int     `json:"w"`
	Lambda   float64 `json:"lambda"`
	Gateways int     `json:"gateways,omitempty"`
}

type inputRecord struct {
	Source string  `json:"source"`
	GenS   float64 `json:"gen_s"` // input generation or cache load, not part of setup_s
	Points int     `json:"points"`
}

type passRecord struct {
	Replays      int       `json:"replays"`
	ReplayS      []float64 `json:"replay_s"`
	RoundSamples int       `json:"round_samples"`
	P90Support   int       `json:"p90_support"` // rounds beyond the reported p90
	SetupSamples int       `json:"setup_samples"`
	MeasuredS    float64   `json:"measured_s"`
	Releases     []stored  `json:"releases"` // per replay
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the pass: a run measured while it was high ran on
	// a busy machine.
	StealPct float64 `json:"host_steal_pct"`
}

type traceRecord struct {
	Rounds         int     `json:"rounds"`
	RoundP50MS     float64 `json:"round_p50_ms"`
	UntracedP50MS  float64 `json:"untraced_round_p50_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	UnaccountedPct float64 `json:"unaccounted_pct"`
}

type opRecord struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

func newRecord(w workload, cfg config, in *input, o *ops, p, traced *pass) *record {
	s := cfg.shape
	r := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host(),
		Shape: shapeRecord{Dataset: s.dataset, Scale: s.scale, Users: in.users, Events: in.events, T: in.T,
			Domain: in.domain, K: s.k, Epsilon: s.eps, W: s.w, Lambda: s.lambda, Gateways: in.gateways},
		Input: inputRecord{Source: in.source, GenS: in.genSeconds, Points: in.points},
		Ops:   map[string]opRecord{},
	}
	for name, c := range o.layers {
		r.Ops[name] = opRecord{c.attempted.Load(), c.failed.Load()}
	}
	if n := o.attempted(); n > 0 {
		r.FailedOpRatio = float64(o.failed()) / float64(n)
	}
	if p != nil {
		r.Pass = &passRecord{Replays: p.replays, ReplayS: p.replayS, RoundSamples: len(p.rounds), P90Support: p90Support(len(p.rounds)),
			SetupSamples: len(p.setups), MeasuredS: sum(p.rounds) / 1000, Releases: p.releases, StealPct: p.steal}
	}
	if traced != nil && traced.traced > 0 && p != nil {
		base := quantile(p.rounds, 0.5)
		r.Traced = &traceRecord{
			Rounds:         traced.traced,
			RoundP50MS:     quantile(traced.rounds, 0.5),
			UntracedP50MS:  base,
			OverheadPct:    100 * (quantile(traced.rounds, 0.5) - base) / base,
			UnaccountedPct: 100 * traced.layers["round.unaccounted_ms"] / traced.tracedWall,
		}
	}
	return r
}

// host describes the machine the run measured.
func host() hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuTimes reads the steal and total CPU time from /proc/stat (Linux), in
// clock ticks; zeros when unavailable.
func cpuTimes() (steal, total uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux), or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

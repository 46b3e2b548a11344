package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"retrasyn"
	"retrasyn/internal/remote"
	"retrasyn/internal/trajectory"
)

// Layer names, by module. Every call the benchmark makes into the system is
// counted against one of them.
var layerNames = []string{"device", "gateway", "transport", "curator", "engine", "adapt"}

// ops counts attempted and failed calls per layer. Gateway goroutines count
// concurrently, so the counters are atomic.
type ops struct{ layers map[string]*opCount }

type opCount struct{ attempted, failed atomic.Int64 }

func newOps() *ops {
	o := &ops{layers: make(map[string]*opCount, len(layerNames))}
	for _, name := range layerNames {
		o.layers[name] = &opCount{}
	}
	return o
}

// call counts one call into layer that returned err, and passes err on.
func (o *ops) call(layer string, err error) error {
	c := o.layers[layer]
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
	}
	return err
}

func (o *ops) attempted() (n int64) {
	for _, c := range o.layers {
		n += c.attempted.Load()
	}
	return n
}

func (o *ops) failed() (n int64) {
	for _, c := range o.layers {
		n += c.failed.Load()
	}
	return n
}

// system is one booted instance of the system under test.
type system interface {
	// replay drives the whole input stream through the system once,
	// recording every round into p.
	replay(p *pass) error
	// outcome reads the replay's release and counters back and checks the
	// workload's ledger.
	outcome() (*outcome, error)
	close() error
}

// outcome is what one replay released and counted.
type outcome struct {
	release    *trajectory.Dataset  // dropped once checked and scored
	space      retrasyn.Discretizer // the layout the release is expressed in
	digest     string
	migrations int
	alarms     int64
	reports    int64                       // device reports (sj-http) or engine reports
	wire       map[string]remote.WireBytes // sj-http: per-endpoint body bytes
}

// pass is one measurement pass: whole replays until their rounds add up to
// the requested seconds.
type pass struct {
	tr      *tracer // nil: tracing off
	replays int
	rounds  []float64 // round wall times, ms
	events  int64
	setups  []float64 // s
	replayS []float64 // each replay's summed round time, s
	steal   float64   // share of host CPU time stolen by the hypervisor during the pass, %; -1 unknown
	heapMB  []float64
	first   *outcome // replay 0: per-layer counts and release identity
	// Per replay: the release identity every run of this seed must
	// reproduce, and (untraced pass) the release's utility.
	releases []stored
	density  []float64
	query    []float64

	// Traced passes: per-layer critical-path time summed over rounds, ms.
	layers          map[string]float64
	tracedWall      float64
	traced          int
	migrationRounds []float64 // ProcessTimestamp wall of rounds that migrated, ms
	base            *pass     // the untraced pass of the same run
}

// minSetups is how many times a pass sets the system up at least, so the
// reported set-up time is a median.
const minSetups = 31

// measure runs one pass. tr != nil makes it the traced pass.
func measure(w workload, in *input, cfg config, o *ops, tr *tracer) (*pass, error) {
	p := &pass{tr: tr, layers: map[string]float64{}}
	steal0, total0 := cpuTimes()
	defer func() {
		steal1, total1 := cpuTimes()
		p.steal = -1
		if total1 > total0 {
			p.steal = 100 * float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	for p.replays == 0 || sum(p.rounds)/1000 < cfg.seconds {
		if err := p.replayOnce(w, in, cfg, o); err != nil {
			return p, err
		}
	}
	runtime.GC() // every set-up starts from a collected heap, as the replays' do
	for len(p.setups) < minSetups {
		sys, err := p.boot(w, in, cfg, o)
		if err != nil {
			return p, err
		}
		if err := sys.close(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// boot builds a system and records its set-up time: discretizer, then
// curator or framework and listener, up to ready.
func (p *pass) boot(w workload, in *input, cfg config, o *ops) (system, error) {
	start := time.Now()
	sys, err := w.boot(in, cfg, o, p.tr, p.replays)
	if err != nil {
		return nil, err
	}
	p.setups = append(p.setups, time.Since(start).Seconds())
	return sys, nil
}

func (w workload) boot(in *input, cfg config, o *ops, tr *tracer, replay int) (system, error) {
	if w.kind == kindHTTP {
		return bootHTTP(in, cfg, o, tr, replay)
	}
	return bootFramework(w.kind, in, cfg, o, replay)
}

func (p *pass) replayOnce(w workload, in *input, cfg config, o *ops) error {
	before := liveHeap()
	sys, err := p.boot(w, in, cfg, o)
	if err != nil {
		return err
	}
	n := len(p.rounds)
	err = sys.replay(p)
	p.replayS = append(p.replayS, sum(p.rounds[n:])/1000)
	if err == nil {
		p.heapMB = append(p.heapMB, (liveHeap()-before)/(1<<20))
		var out *outcome
		if out, err = sys.outcome(); err == nil {
			err = p.accept(out, in)
		}
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	p.replays++
	return err
}

// accept checks one replay's outcome: the release has as many points as
// the input (population division adjusts sizes exactly). It records the
// release identity and, on the untraced pass, scores the release.
func (p *pass) accept(out *outcome, in *input) error {
	if got := out.release.NumPoints(); got != in.points {
		return fmt.Errorf("replay %d released %d points for %d input points", p.replays, got, in.points)
	}
	p.releases = append(p.releases, stored{Digest: out.digest, Migrations: out.migrations})
	if p.tr == nil {
		rep := utility(in, out)
		p.density = append(p.density, rep.DensityError)
		p.query = append(p.query, rep.QueryError)
	}
	out.release = nil
	if p.first == nil {
		p.first = out
	}
	return nil
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// round records one round's wall time and presence events.
func (p *pass) round(wall time.Duration, events int) {
	p.rounds = append(p.rounds, ms(wall))
	p.events += int64(events)
}

// unaccountedSlack absorbs clock granularity when checking that the
// critical-path steps fit inside the round.
const unaccountedSlack = 2 * time.Microsecond

// breakdown records a traced round: path holds the critical-path steps,
// which must fit inside the round's wall time (whatever they miss is
// round.unaccounted_ms); detail holds per-layer values that refine or
// enclose those steps and are not added again.
func (p *pass) breakdown(t int, wall time.Duration, path, detail map[string]time.Duration) error {
	var covered time.Duration
	for name, d := range path {
		covered += d
		p.layers[name] += ms(d)
	}
	for name, d := range detail {
		p.layers[name] += ms(d)
	}
	rest := wall - covered
	if rest < -unaccountedSlack {
		return fmt.Errorf("t=%d: critical-path layer times %v exceed the round's wall time %v", t, covered, wall)
	}
	p.layers["round.unaccounted_ms"] += ms(rest)
	p.tracedWall += ms(wall)
	p.traced++
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of v, the mean of the middle two for an even
// count.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// p90Support is how many samples lie beyond the reported p90.
func p90Support(n int) int { return n - int(math.Ceil(0.9*float64(n))) }

// endToEnd returns the pass's end-to-end metrics.
func (p *pass) endToEnd() map[string]metric {
	m := map[string]metric{
		"events_per_s":     {float64(p.events) / (sum(p.rounds) / 1000), "1/s"},
		"round_p50_ms":     {quantile(p.rounds, 0.5), "ms"},
		"round_p90_ms":     {quantile(p.rounds, 0.9), "ms"},
		"setup_s":          {median(p.setups), "s"},
		"retained_heap_mb": {median(p.heapMB), "MB"},
	}
	if len(p.density) > 0 {
		m["density_error"] = metric{sum(p.density) / float64(len(p.density)), "JSD"}
		m["query_error"] = metric{sum(p.query) / float64(len(p.query)), "ratio"}
	}
	return m
}

// layerMetrics returns the traced pass's per-layer metrics, every name in
// perLayer, 0 for a layer this workload does not run.
func (p *pass) layerMetrics() map[string]metric {
	v := map[string]float64{}
	if p.traced > 0 {
		for name, total := range p.layers {
			v[name] = total / float64(p.traced)
		}
		v["round.wall_ms"] = p.tracedWall / float64(p.traced)
		v["round.unaccounted_pct"] = 100 * p.layers["round.unaccounted_ms"] / p.tracedWall
	}
	if len(p.migrationRounds) > 0 {
		v["relayout.migration_round_ms"] = sum(p.migrationRounds) / float64(len(p.migrationRounds))
	}
	if p.base != nil {
		v["trace.overhead_ms"] = quantile(p.rounds, 0.5) - quantile(p.base.rounds, 0.5)
	}
	if out := p.first; out != nil {
		v["relayout.migrations"] = float64(out.migrations)
		v["monitor.alarms"] = float64(out.alarms)
		v["device.reports"] = float64(out.reports)
		var wire int64
		for _, ep := range wireEndpoints {
			b := out.wire["/v1/"+ep]
			v["wire."+ep+".bytes_in"] = float64(b.BytesIn)
			v["wire."+ep+".bytes_out"] = float64(b.BytesOut)
			wire += b.BytesIn + b.BytesOut
		}
		if p.replays > 0 {
			v["wire.bytes_per_event"] = float64(wire) / float64(p.events/int64(p.replays))
		}
	}
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = metric{v[d.Name], d.Unit}
	}
	return m
}

// wireEndpoints are the protocol endpoints whose body bytes the curator's
// wire ledger reports (GET /v1/stats, the benchmark's own read-back, is left
// out).
var wireEndpoints = []string{"presence", "assignments", "report", "plan", "finalize"}

// tracer keeps spans in memory until the run ends; passes hold a nil
// tracer when tracing is off.
type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	server map[int64]time.Duration // client span ID → server handler time
}

// span is one timed call: name, start, end, the span that caused it, and
// the round (timestamp) it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	T      int    `json:"t"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), server: map[int64]time.Duration{}}
}

func (tr *tracer) id() int64 { return tr.ids.Add(1) }

// add records a span under a pre-assigned ID.
func (tr *tracer) add(id, parent int64, name string, t int, start, end time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, T: t,
		Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
	tr.mu.Unlock()
}

// addServer records a server-side handler span caused by client span
// parent.
func (tr *tracer) addServer(parent int64, name string, start, end time.Time) {
	tr.mu.Lock()
	tr.server[parent] = end.Sub(start)
	tr.mu.Unlock()
	tr.add(tr.id(), parent, name, -1, start, end)
}

// serverTime returns the handler time of the request client span id made.
func (tr *tracer) serverTime(id int64) (time.Duration, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d, ok := tr.server[id]
	if !ok {
		return 0, fmt.Errorf("no server span for client span %d", id)
	}
	return d, nil
}

// write stores the spans as JSON lines, server spans tagged with their
// client span's round.
func (tr *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	roundOf := make(map[int64]int, len(tr.spans))
	for _, s := range tr.spans {
		roundOf[s.ID] = s.T
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if s.T < 0 {
			s.T = roundOf[s.Parent]
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

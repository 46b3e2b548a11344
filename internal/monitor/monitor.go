package monitor

import (
	"fmt"
	"sort"
	"sync"

	"retrasyn/internal/metrics"
	"retrasyn/internal/obs"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
)

// Signal names, in reporting order.
const (
	SignalDivergence = "divergence"
	SignalSigRatio   = "sig_ratio"
	SignalErrors     = "errors"
)

var signalOrder = []string{SignalDivergence, SignalSigRatio, SignalErrors}

// Options configures a Monitor.
type Options struct {
	// Window is the number of released timestamps each round reads from the
	// release sketch; the divergence compares this sliding window of the
	// released stream against the current round's DP estimates. Must be ≥ 1.
	Window int
	// Divergence, SigRatio and Errors tune the per-signal change-point
	// detectors; zero fields take the detector defaults, except where noted.
	// The errors detector defaults to Delta 0.5 / Lambda 3 (alarm only on a
	// sustained burst of whole failed rounds, not one transient). The
	// sig_ratio detector defaults to Delta 0.1 / Lambda 0.5 / Warmup 10: the
	// significance ratio is a noisy fraction whose round-to-round jitter is
	// an order of magnitude above the divergence signal's, and its opening
	// ramp (zero on the first round, steady state within a window) must fall
	// inside the warmup or the frozen baseline would alarm forever.
	Divergence DetectorOptions
	SigRatio   DetectorOptions
	Errors     DetectorOptions
}

// Monitor watches three utility signals over the live run: the divergence
// between the released synthetic stream and the DP-estimated cell histogram,
// the DMU significance ratio, and the round-error counter. Each signal runs
// through its own EWMA + Page–Hinkley detector (detector.go); the union of
// active alarms is what the relayout degradation trigger and /v1/health
// consume.
//
// The monitor keeps no copy of the released stream: each round reads its
// window from the shared release sketch, whose continuous points survive
// relayouts unchanged, and folds it onto the *current* discretization. All
// methods are safe for concurrent use and nil-safe, so a nil *Monitor is a
// valid "monitoring off" value.
type Monitor struct {
	mu     sync.Mutex
	window int
	det    map[string]*Detector

	rounds     int
	lastErrors int64
	l1, js     float64
	computedT  int // timestamp of the last divergence computation, -1 if none

	mDivL1, mDivJS *obs.Gauge
	mAlarm         map[string]*obs.Gauge
	mAlarmsTotal   map[string]*obs.Counter
}

// New builds a Monitor that reads a sliding window of opts.Window released
// timestamps.
func New(opts Options) (*Monitor, error) {
	if opts.Window < 1 {
		return nil, fmt.Errorf("monitor: Window must be ≥ 1, got %d", opts.Window)
	}
	eo := opts.Errors
	if eo.Delta <= 0 {
		eo.Delta = 0.5
	}
	if eo.Lambda <= 0 {
		eo.Lambda = 3
	}
	so := opts.SigRatio
	if so.Delta <= 0 {
		so.Delta = 0.1
	}
	if so.Lambda <= 0 {
		so.Lambda = 0.5
	}
	if so.Warmup <= 0 {
		so.Warmup = 10
	}
	return &Monitor{
		window: opts.Window,
		det: map[string]*Detector{
			SignalDivergence: NewDetector(opts.Divergence),
			SignalSigRatio:   NewDetector(so),
			SignalErrors:     NewDetector(eo),
		},
		computedT: -1,
	}, nil
}

// Window returns the window length in timestamps.
func (m *Monitor) Window() int {
	if m == nil {
		return 0
	}
	return m.window
}

// SetMetrics registers the monitor's gauges on reg. Pass before the run
// starts; nil-safe on both sides.
func (m *Monitor) SetMetrics(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mDivL1 = reg.Gauge("monitor.release_divergence", obs.Label{Key: "metric", Value: "l1"})
	m.mDivJS = reg.Gauge("monitor.release_divergence", obs.Label{Key: "metric", Value: "js"})
	m.mAlarm = make(map[string]*obs.Gauge, len(signalOrder))
	m.mAlarmsTotal = make(map[string]*obs.Counter, len(signalOrder))
	for _, s := range signalOrder {
		m.mAlarm[s] = reg.Gauge("monitor.alarm", obs.Label{Key: "signal", Value: s})
		m.mAlarmsTotal[s] = reg.Counter("monitor.alarms_total", obs.Label{Key: "signal", Value: s})
	}
}

// RoundReport is the per-round monitor outcome, destined for the trace
// stream.
type RoundReport struct {
	// Computed reports whether divergence was evaluated this round (it
	// needs a reported round and a non-empty release sketch).
	Computed bool
	// L1 is Σ|p−q| over normalized cell masses, in [0, 2].
	L1 float64
	// JS is the Jensen–Shannon divergence in nats, in [0, ln 2].
	JS float64
	// Alarms lists the signals whose alarm is active after this round, in
	// signalOrder. Empty means healthy.
	Alarms []string
	// Raised lists the signals whose alarm was newly raised by this round.
	Raised []string
}

// Round closes timestamp t: it folds the releases of the Window timestamps
// before t, [t−Window, t−1], from the sketch onto space, compares them
// against cellEst (per-cell DP-estimated mass, len == space.NumCells(); nil
// on unreported rounds), and steps every detector. Round t's own release is
// left out: the synthesizer adapts to the estimates within the round, so
// including it would dilute a regime change with the already-adapted
// stream. totalErrors is the cumulative round-error count — the monitor
// differences it internally.
func (m *Monitor) Round(t int, space spatial.Discretizer, sketch *relayout.DensityTracker, cellEst []float64, sigRatio float64, totalErrors int64) RoundReport {
	if m == nil {
		return RoundReport{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds++

	var rep RoundReport
	reported := space != nil && len(cellEst) == space.NumCells() && space.NumCells() > 0
	var released []float64
	if reported {
		released = m.fold(space, sketch, t)
	}
	if released != nil {
		rep.L1, rep.JS = divergence(released, denoise(cellEst))
		rep.Computed = true
		m.l1, m.js = rep.L1, rep.JS
		m.computedT = t
		m.mDivL1.Set(rep.L1)
		m.mDivJS.Set(rep.JS)
		if m.det[SignalDivergence].Step(t, rep.JS) {
			rep.Raised = append(rep.Raised, SignalDivergence)
		}
	}
	if reported {
		if m.det[SignalSigRatio].Step(t, sigRatio) {
			rep.Raised = append(rep.Raised, SignalSigRatio)
		}
	}
	delta := totalErrors - m.lastErrors
	m.lastErrors = totalErrors
	if m.det[SignalErrors].Step(t, float64(delta)) {
		rep.Raised = append(rep.Raised, SignalErrors)
	}

	for _, s := range signalOrder {
		d := m.det[s]
		if d.Active() {
			rep.Alarms = append(rep.Alarms, s)
			m.mAlarm[s].Set(1)
		} else {
			m.mAlarm[s].Set(0)
		}
	}
	for _, s := range rep.Raised {
		m.mAlarmsTotal[s].Inc()
	}
	sort.Slice(rep.Raised, func(i, j int) bool {
		return signalRank(rep.Raised[i]) < signalRank(rep.Raised[j])
	})
	return rep
}

func signalRank(s string) int {
	for i, n := range signalOrder {
		if n == s {
			return i
		}
	}
	return len(signalOrder)
}

// NoteRelayout tells the monitor a layout migration was applied. The
// stationary level of the layout-dependent signals (divergence, sig_ratio)
// changes with the discretization, so their detectors reset and re-learn a
// baseline on the new layout — otherwise a baseline learned on the old
// layout would latch the alarm forever and the degradation trigger would
// migrate on every window. The errors signal is layout-independent and keeps
// its state; cumulative alarm counts survive the reset. The release sketch
// stores continuous points and needs no action.
func (m *Monitor) NoteRelayout() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range []string{SignalDivergence, SignalSigRatio} {
		m.det[s].Reset()
		if m.mAlarm != nil {
			m.mAlarm[s].Set(0)
		}
	}
}

// Alarming reports whether any signal's alarm is currently active. This is
// the degradation-trigger input consumed by relayout.Controller.
func (m *Monitor) Alarming() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.det {
		if d.Active() {
			return true
		}
	}
	return false
}

// fold histograms the sketch's points of [t−window, t−1] onto the
// discretization; nil when the window holds no points.
func (m *Monitor) fold(space spatial.Discretizer, sketch *relayout.DensityTracker, t int) []float64 {
	out := make([]float64, space.NumCells())
	n := 0
	sketch.Each(t-m.window, t-1, func(p spatial.Point) {
		n++
		if c := space.CellOf(p.X, p.Y); c >= 0 && int(c) < len(out) {
			out[int(c)]++
		}
	})
	if n == 0 {
		return nil
	}
	return out
}

// denoise soft-thresholds a DP-estimated mass vector by its per-cell median:
// unbiased OUE estimates clamped to non-negative carry a noise floor spread
// over every cell, and at per-round budgets that floor can outweigh the true
// mass several times over, drowning any real density shift. Most cells hold
// (near-)zero true mass, so the median of the clamped vector is a robust
// estimate of that floor; subtracting it keeps the peaks that carry the
// actual distribution. Pure post-processing of the DP release — no privacy
// cost.
func denoise(est []float64) []float64 {
	sorted := make([]float64, len(est))
	for i, v := range est {
		if v < 0 {
			v = 0
		}
		sorted[i] = v
	}
	out := sorted
	sorted = append([]float64(nil), sorted...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if med <= 0 {
		return out
	}
	for i, v := range out {
		v -= med
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// divergence returns the normalized-L1 distance and the Jensen–Shannon
// divergence between two mass vectors of equal length. Negative entries
// (DP estimates are unbiased, not non-negative) are clamped to zero.
func divergence(p, q []float64) (l1, js float64) {
	cp, cq := clampNonNeg(p), clampNonNeg(q)
	var sp, sq float64
	for _, v := range cp {
		sp += v
	}
	for _, v := range cq {
		sq += v
	}
	if sp == 0 || sq == 0 {
		if sp == sq {
			return 0, 0
		}
		return 2, metrics.Ln2
	}
	for i := range cp {
		l1 += abs(cp[i]/sp - cq[i]/sq)
	}
	return l1, metrics.JSD(cp, cq)
}

func clampNonNeg(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x > 0 {
			out[i] = x
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

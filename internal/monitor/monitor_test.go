package monitor

import (
	"math"
	"strings"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/metrics"
	"retrasyn/internal/obs"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/transition"
)

func TestDetectorStableSignalNeverAlarms(t *testing.T) {
	d := NewDetector(DetectorOptions{})
	// A noisy but stationary signal: deterministic triangle jitter around
	// 0.3, amplitude below Delta's tolerance once smoothed.
	for i := 0; i < 500; i++ {
		x := 0.3 + 0.01*float64(i%7-3)
		if d.Step(i, x) {
			t.Fatalf("stable signal raised an alarm at sample %d", i)
		}
	}
	if d.Active() || d.Alarms() != 0 {
		t.Fatalf("stable signal ended active=%v alarms=%d", d.Active(), d.Alarms())
	}
}

func TestDetectorRaisesOnSustainedShiftAndRecovers(t *testing.T) {
	d := NewDetector(DetectorOptions{Lambda: 0.1, Delta: 0.02, ClearAfter: 3})
	ts := 0
	feed := func(n int, x float64) {
		for i := 0; i < n; i++ {
			d.Step(ts, x)
			ts++
		}
	}
	feed(20, 0.1) // establish baseline
	if d.Active() {
		t.Fatal("active before any shift")
	}
	feed(10, 0.4) // sustained upward shift
	if !d.Active() {
		t.Fatal("sustained +0.3 shift did not raise")
	}
	raisedAt := d.LastAlarmT()
	if raisedAt < 20 {
		t.Fatalf("alarm timestamp %d predates the shift", raisedAt)
	}
	// While degraded, the baseline must not absorb the new regime.
	if d.Baseline() > 0.2 {
		t.Fatalf("baseline %v chased the degraded regime", d.Baseline())
	}
	feed(60, 0.1) // recovery: accumulator drains, hysteresis clears
	if d.Active() {
		t.Fatal("alarm did not clear after sustained recovery")
	}
	if d.Alarms() != 1 {
		t.Fatalf("want exactly 1 raise event, got %d", d.Alarms())
	}
}

func TestDetectorHysteresisNoFlap(t *testing.T) {
	// A signal oscillating right at the threshold region must not produce a
	// raise/clear storm: clearing needs ClearAfter consecutive drained
	// samples, so the alarm count stays far below the oscillation count.
	d := NewDetector(DetectorOptions{Lambda: 0.05, Delta: 0.01, ClearAfter: 5})
	for i := 0; i < 400; i++ {
		x := 0.1
		if i >= 50 && i%2 == 0 {
			x = 0.25
		}
		d.Step(i, x)
	}
	if d.Alarms() > 2 {
		t.Fatalf("oscillating signal flapped: %d raise events", d.Alarms())
	}
}

func TestCellMassesFold(t *testing.T) {
	g, err := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	if err != nil {
		t.Fatal(err)
	}
	dom := transition.NewDomain(g)
	est := make([]float64, dom.Size())
	// One move into cell 3, one enter into cell 0, one quit from cell 2,
	// and a negative estimate that must be clamped away.
	mi, ok := dom.MoveIndex(0, 3)
	if !ok {
		t.Fatal("cells 0 and 3 not adjacent on a 2x2 grid")
	}
	est[mi] = 5
	est[dom.EnterIndex(0)] = 2
	est[dom.QuitIndex(2)] = 3
	est[dom.EnterIndex(1)] = -4
	masses := CellMasses(dom, est, nil)
	want := []float64{2, 0, 3, 5}
	for i, w := range want {
		if masses[i] != w {
			t.Fatalf("cell %d mass = %v, want %v (all: %v)", i, masses[i], w, masses)
		}
	}
	// Buffer reuse zeroes stale content.
	masses[0] = 99
	masses2 := CellMasses(dom, est, masses)
	if &masses2[0] != &masses[0] || masses2[0] != 2 {
		t.Fatalf("buffer not reused/zeroed: %v", masses2)
	}
}

func TestMonitorDivergenceZeroWhenAligned(t *testing.T) {
	g, _ := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	m, err := New(Options{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Released points all in cell 0; estimates all mass on cell 0 → zero
	// divergence. Mass scaling must not matter.
	sk := relayout.NewDensityTracker(4)
	sk.Observe(0, []spatial.Point{{X: 0.5, Y: 0.5}, {X: 0.2, Y: 0.2}})
	rep := m.Round(1, g, sk, []float64{100, 0, 0, 0}, 0.5, 0)
	if !rep.Computed {
		t.Fatal("divergence not computed")
	}
	if rep.L1 != 0 || rep.JS != 0 {
		t.Fatalf("aligned distributions diverge: l1=%v js=%v", rep.L1, rep.JS)
	}
	// Disjoint support → maximal divergence.
	rep = m.Round(2, g, sk, []float64{0, 0, 0, 10}, 0.5, 0)
	if math.Abs(rep.L1-2) > 1e-12 || math.Abs(rep.JS-metrics.Ln2) > 1e-12 {
		t.Fatalf("disjoint distributions: l1=%v js=%v, want 2 and ln2", rep.L1, rep.JS)
	}
}

func TestMonitorUnreportedRoundSkipsDivergence(t *testing.T) {
	g, _ := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	m, _ := New(Options{Window: 4})
	sk := relayout.NewDensityTracker(4)
	sk.Observe(0, []spatial.Point{{X: 0.5, Y: 0.5}})
	rep := m.Round(1, g, sk, nil, 0, 0)
	if rep.Computed {
		t.Fatal("divergence computed on an unreported round")
	}
	h := m.Health()
	if h.DivergenceT != -1 {
		t.Fatalf("DivergenceT = %d before any computation", h.DivergenceT)
	}
}

func TestMonitorHealthStatuses(t *testing.T) {
	g, _ := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	fast := DetectorOptions{Warmup: 2, Lambda: 0.05, Delta: 0.01, ClearAfter: 3}
	m, _ := New(Options{Window: 4, Divergence: fast, SigRatio: fast})
	if got := m.Health().Status; got != StatusOK {
		t.Fatalf("fresh monitor status = %q", got)
	}
	if (*Monitor)(nil).Health().Status != StatusOK {
		t.Fatal("nil monitor must report ok")
	}
	// Warm up with aligned rounds, then poison: released stays in cell 0
	// while estimates jump to cell 3 → divergence alarm → failing.
	sk := relayout.NewDensityTracker(4)
	for i := 0; i < 6; i++ {
		m.Round(i, g, sk, []float64{10, 0, 0, 0}, 0.2, 0)
		sk.Observe(i, []spatial.Point{{X: 0.5, Y: 0.5}})
	}
	for i := 6; i < 12; i++ {
		m.Round(i, g, sk, []float64{0, 0, 0, 10}, 0.2, 0)
		sk.Observe(i, []spatial.Point{{X: 0.5, Y: 0.5}})
	}
	h := m.Health()
	if !m.Alarming() {
		t.Fatal("disjoint estimates did not alarm")
	}
	if h.Status != StatusFailing {
		t.Fatalf("divergence alarm → status %q, want failing", h.Status)
	}
	sig := h.Signals[SignalDivergence]
	if sig.Status != "alarm" || sig.Alarms < 1 || sig.LastAlarmT < 6 {
		t.Fatalf("divergence signal health %+v", sig)
	}
}

func TestMonitorMetricsRegistered(t *testing.T) {
	g, _ := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	m, _ := New(Options{Window: 4})
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	sk := relayout.NewDensityTracker(4)
	sk.Observe(0, []spatial.Point{{X: 0.5, Y: 0.5}})
	m.Round(1, g, sk, []float64{0, 10, 0, 0}, 0.3, 0)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`monitor_release_divergence{metric="js"}`,
		`monitor_release_divergence{metric="l1"}`,
		`monitor_alarm{signal="divergence"}`,
		`monitor_alarms_total{signal="errors"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %s:\n%s", want, text)
		}
	}
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("monitor exposition fails lint: %v", err)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.SetMetrics(obs.NewRegistry())
	if rep := m.Round(0, nil, nil, nil, 0, 0); rep.Computed {
		t.Fatal("nil monitor computed a divergence")
	}
	if m.Alarming() {
		t.Fatal("nil monitor alarming")
	}
	if m.Window() != 0 {
		t.Fatal("nil monitor window")
	}
}

// TestMonitorReadsWindowBeforeRound pins the window a round reads from the
// shared sketch: the releases of the Window timestamps before t, never
// round t's own release nor anything older, however much more the sketch
// retains for other readers.
func TestMonitorReadsWindowBeforeRound(t *testing.T) {
	g, _ := grid.New(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	m, _ := New(Options{Window: 2})
	sk := relayout.NewDensityTracker(10)
	cell0, cell3 := []spatial.Point{{X: 0.5, Y: 0.5}}, []spatial.Point{{X: 1.5, Y: 1.5}}
	sk.Observe(0, cell0) // outside round 3's window
	sk.Observe(1, cell3)
	sk.Observe(2, cell3)
	sk.Observe(3, cell0) // round 3's own release
	if rep := m.Round(3, g, sk, []float64{0, 0, 0, 5}, 0.5, 0); !rep.Computed || rep.L1 != 0 {
		t.Fatalf("round 3 read outside [1, 2]: %+v", rep)
	}
	// A gap: timestamps 4..6 never released, so round 7's window [5, 6]
	// is empty and no divergence is computed.
	if rep := m.Round(7, g, sk, []float64{0, 0, 0, 5}, 0.5, 0); rep.Computed {
		t.Fatalf("round 7 read releases older than its window: %+v", rep)
	}
}

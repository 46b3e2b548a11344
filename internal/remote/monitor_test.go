package remote

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/monitor"
	"retrasyn/internal/relayout"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// newStationaryDriver builds a protoDriver whose arrivals spread over the
// whole run, so the active population stays roughly constant after ramp-in.
// protoDriver itself front-loads every arrival into [0, T/2) — fine for
// snapshot tests, but its population collapse in the second half is a real
// utility degradation the monitor is supposed to flag, which would make a
// "stable workload" property test dishonest.
func newStationaryDriver(g *grid.System, dom *transition.Domain, n, T int) *protoDriver {
	rng := ldp.NewRand(7, 13)
	d := &protoDriver{dom: dom}
	for u := 0; u < n; u++ {
		start := rng.IntN(T)
		c := grid.Cell(rng.IntN(g.NumCells()))
		cells := []grid.Cell{c}
		for ts := start + 1; ts < T; ts++ {
			if rng.Float64() < 0.1 {
				break
			}
			ns := g.Neighbors(c)
			c = ns[rng.IntN(len(ns))]
			cells = append(cells, c)
		}
		d.trajs = append(d.trajs, trajectory.CellTrajectory{Start: start, Cells: cells})
		d.rngs = append(d.rngs, ldp.NewSource(uint64(u)+900, (uint64(u)+900)^0xbb67ae8584caa73b))
	}
	return d
}

// TestHealthEndpoint drives a served curator and polls GET /v1/health: the
// endpoint must answer 200 with the documented JSON contract while the
// monitor is healthy, reflect the run's progress, and stay off the wire
// ledger like /metrics.
func TestHealthEndpoint(t *testing.T) {
	cfg := testConfig(testGrid())
	cfg.MonitorWindow = 4
	cfg.TriggerPolicy = relayout.TriggerGeometric
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	poll := func() (int, HealthReport) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatalf("health payload not JSON: %v", err)
		}
		return resp.StatusCode, hr
	}

	code, hr := poll()
	if code != http.StatusOK || hr.Status != monitor.StatusOK {
		t.Fatalf("fresh curator health: code %d status %q", code, hr.Status)
	}
	if hr.T != -1 || hr.Rounds != 0 || hr.Generation != 0 {
		t.Fatalf("fresh curator health progress fields: %+v", hr)
	}
	if hr.Window != 4 || hr.Trigger != string(relayout.TriggerGeometric) {
		t.Fatalf("health config fields: window %d trigger %q", hr.Window, hr.Trigger)
	}

	const T = 12
	driveRounds(t, cur, srv.URL, 80, 0, T)
	code, hr = poll()
	if code != http.StatusOK {
		t.Fatalf("healthy mid-run curator answered %d", code)
	}
	if hr.T != T-1 || hr.Rounds == 0 {
		t.Fatalf("health did not track the run: t=%d rounds=%d", hr.T, hr.Rounds)
	}
	for _, sig := range []string{monitor.SignalDivergence, monitor.SignalSigRatio, monitor.SignalErrors} {
		if _, ok := hr.Signals[sig]; !ok {
			t.Fatalf("health payload missing signal %q: %+v", sig, hr.Signals)
		}
	}
	if hr.DivergenceT < 0 {
		t.Fatal("no divergence computed over a driven reported run")
	}

	// Health polling is observability traffic: not in the wire ledger.
	exposition := scrapeExposition(t, srv.URL)
	if strings.Contains(exposition, `path="/v1/health"`) {
		t.Fatal("health polling leaked into the wire ledger")
	}
	// The monitor's divergence gauges are exposed for scrapers.
	for _, want := range []string{
		`monitor_release_divergence{metric="js"}`,
		`monitor_release_divergence{metric="l1"}`,
		`monitor_alarm{signal="divergence"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestMonitorDoesNotPerturbReleases is the bit-identity golden pin for the
// monitor: curators differing only in monitor window and trigger policy —
// fed the same perturbed report bits in lockstep — must produce identical
// releases and logically identical snapshots. The monitor observes the
// engine; it never touches its randomness, and its state never rides
// checkpoints.
func TestMonitorDoesNotPerturbReleases(t *testing.T) {
	g := testGrid()
	base, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(g)
	cfg.MonitorWindow = 3
	cfg.TriggerPolicy = relayout.TriggerDegradationAnd
	tuned, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A monitor window wider than the controller's sketch window (W) widens
	// the shared sketch; checkpoints still carry the controller window only.
	wideCfg := testConfig(g)
	wideCfg.MonitorWindow = 3 * wideCfg.W
	wide, err := NewCurator(wideCfg)
	if err != nil {
		t.Fatal(err)
	}

	const T = 14
	drv := newProtoDriver(g, base.Domain(), 80, T)
	for ts := 0; ts < T; ts++ {
		drv.step(t, ts, base, tuned, wide)
	}
	if !equalReleases(base.Synthetic("a"), tuned.Synthetic("a")) {
		t.Fatal("monitor window / trigger policy perturbed the released stream")
	}
	if !equalReleases(base.Synthetic("a"), wide.Synthetic("a")) {
		t.Fatal("a wide monitor window perturbed the released stream")
	}

	baseBlob, err := marshalSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	tunedBlob, err := marshalSnapshot(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripTimings(t, baseBlob), stripTimings(t, tunedBlob)) {
		t.Fatal("monitor or trigger state leaked into the snapshot")
	}
	wideBlob, err := marshalSnapshot(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripTimings(t, baseBlob), stripTimings(t, wideBlob)) {
		t.Fatal("the monitor window leaked into the snapshot's sketch")
	}
}

// TestStableWorkloadNeverAlarms is the hysteresis property pin at the
// protocol level: a stationary workload driven for many rounds under a
// degradation trigger raises zero alarms, so the monitor initiates zero
// relayouts and the trace never records a fired trigger.
func TestStableWorkloadNeverAlarms(t *testing.T) {
	cfg := testConfig(testGrid())
	cfg.TriggerPolicy = relayout.TriggerDegradationOr
	cfg.RediscretizeEvery = 1
	cfg.RelayoutThreshold = 0.999 // geometric alone effectively never fires
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	cur.SetTracer(slog.New(slog.NewJSONHandler(&traceBuf, nil)))

	const T = 40
	g := testGrid()
	drv := newStationaryDriver(g, cur.Domain(), 200, T)
	for ts := 0; ts < T; ts++ {
		drv.step(t, ts, cur)
	}

	hr := cur.Health()
	var total int64
	for sig, sh := range hr.Signals {
		total += sh.Alarms
		if sh.Status == "alarm" {
			t.Errorf("signal %q still alarming at end of a stable run", sig)
		}
	}
	if total != 0 {
		t.Fatalf("stable workload raised %d alarms: %+v", total, hr.Signals)
	}
	if hr.Status != monitor.StatusOK {
		t.Fatalf("stable workload ended with status %q", hr.Status)
	}
	if gen := cur.LayoutStatus().Generation; gen != 0 {
		t.Fatalf("monitor initiated %d relayouts on a stable workload", gen)
	}
	// Every trace event carries the monitor fields, and trigger_fired stays
	// false throughout.
	lines := strings.Split(strings.TrimSpace(traceBuf.String()), "\n")
	if len(lines) != T {
		t.Fatalf("tracer emitted %d events, want %d", len(lines), T)
	}
	for _, line := range lines {
		var ev struct {
			TriggerFired *bool     `json:"trigger_fired"`
			Alarms       *[]string `json:"alarms"`
			Divergence   *float64  `json:"divergence"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		if ev.TriggerFired == nil || ev.Alarms == nil || ev.Divergence == nil {
			t.Fatalf("trace event missing monitor fields: %s", line)
		}
		if *ev.TriggerFired {
			t.Fatalf("trigger fired on a stable workload: %s", line)
		}
		if len(*ev.Alarms) != 0 {
			t.Fatalf("alarm recorded on a stable workload: %s", line)
		}
	}
}

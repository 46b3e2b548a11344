package remote

// Golden pins of the curator's post-round adaptation loop, read through the
// round tracer's JSONL and the metrics registry: per round the divergence
// values, active alarms, trigger verdict, switch and layout generation,
// plus the relayout proposal series and the final release. The hashes were
// captured before the curator and the facade shared one adaptation step.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"strings"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// releaseHash fingerprints a released database.
func releaseHash(d *trajectory.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(d.T)
	put(len(d.Trajs))
	for _, tr := range d.Trajs {
		put(tr.Start)
		put(len(tr.Cells))
		for _, c := range tr.Cells {
			put(int(c))
		}
	}
	return h.Sum64()
}

// stepCurrent runs one protocol timestamp like protoDriver.step, but
// encodes every state in the curator's *current* layout — each boot-grid
// cell maps to the layout cell holding its center — so the drive survives
// migrations. A state the current domain cannot index (a move between
// cells that are no longer adjacent) is simply not reported. Before the
// first migration the drive is identical to protoDriver.step.
func (d *protoDriver) stepCurrent(t *testing.T, g *grid.System, ts int, cur *Curator) {
	t.Helper()
	dom := cur.Domain()
	sp := dom.Space()
	remap := func(c spatial.Cell) spatial.Cell {
		x, y := g.Center(c)
		return sp.CellOf(x, y)
	}
	active := 0
	for u, tr := range d.trajs {
		if _, ok := d.stateAt(u, ts); ok {
			if err := cur.Presence(u, ts); err != nil {
				t.Fatalf("t=%d presence: %v", ts, err)
			}
		}
		if ts >= tr.Start && ts <= tr.End() {
			active++
		}
	}
	if err := cur.Plan(ts); err != nil {
		t.Fatalf("t=%d plan: %v", ts, err)
	}
	for u := range d.trajs {
		s, ok := d.stateAt(u, ts)
		if !ok {
			continue
		}
		a, err := cur.AssignmentFor(u, ts)
		if err != nil {
			t.Fatalf("t=%d assignment: %v", ts, err)
		}
		if !a.Report {
			continue
		}
		switch s.Kind {
		case transition.Enter:
			s = transition.EnterState(remap(s.To))
		case transition.Quit:
			s = transition.QuitState(remap(s.From))
		default:
			s = transition.MoveState(remap(s.From), remap(s.To))
		}
		idx, ok := dom.Index(s)
		if !ok {
			continue
		}
		ones := ldp.MustOUE(dom.Size(), a.Epsilon).Perturb(d.rngs[u], idx)
		if err := cur.Report(u, ts, ones); err != nil {
			t.Fatalf("t=%d report: %v", ts, err)
		}
	}
	if err := cur.Finalize(ts, active); err != nil {
		t.Fatalf("t=%d finalize: %v", ts, err)
	}
}

// traceKeys are the deterministic round-trace fields the golden hash
// covers (stage latencies are wall-clock and excluded).
var traceKeys = []string{
	"t", "reported", "reports", "epsilon", "pool", "sampled", "sig_ratio", "significant",
	"domain_size", "generation", "relayout_switched", "divergence", "divergence_l1",
	"alarms", "trigger_fired",
}

// TestCuratorAdaptationTraceGolden pins the curator's adaptation loop under
// the degradation-or trigger with a periodic rebuild every window. The run
// covers geometric switches and alarmed rounds.
func TestCuratorAdaptationTraceGolden(t *testing.T) {
	const (
		wantTrace   = uint64(0x1fb019b23e43436c)
		wantRelease = uint64(0xcc0b264841428f86)
		T           = 30
	)
	g := testGrid()
	cfg := testConfig(g)
	cfg.RediscretizeEvery = 1
	cfg.RelayoutThreshold = 0.03
	cfg.TriggerPolicy = relayout.TriggerDegradationOr
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	cur.SetTracer(slog.New(slog.NewJSONHandler(&traceBuf, nil)))
	drv := newProtoDriver(g, cur.Domain(), 120, T)
	h := fnv.New64a()
	alarms := 0
	for ts := 0; ts < T; ts++ {
		drv.stepCurrent(t, g, ts, cur)
		lines := strings.Split(strings.TrimSpace(traceBuf.String()), "\n")
		var ev map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
			t.Fatal(err)
		}
		for _, k := range traceKeys {
			fmt.Fprintf(h, "%s=%s ", k, ev[k])
		}
		if string(ev["alarms"]) != "[]" {
			alarms++
		}
		reg := cur.Metrics()
		dec := reg.Histogram("relayout.decision_distance_micro").Summary()
		fmt.Fprintf(h, "proposals=%d switches=%d dist=%d/%v/%d\n",
			reg.Counter("relayout.proposals").Value(), reg.Counter("relayout.switches").Value(),
			dec.Count, dec.MeanUS, dec.MaxUS)
	}
	if cur.LayoutStatus().Generation == 0 || alarms == 0 {
		t.Errorf("pinned run covers %d migrations and %d alarmed rounds, want both > 0",
			cur.LayoutStatus().Generation, alarms)
	}
	trace, release := h.Sum64(), releaseHash(cur.Synthetic("trace"))
	if trace != wantTrace || release != wantRelease {
		t.Fatalf("curator adaptation trace %#x / release %#x, pinned %#x / %#x", trace, release, wantTrace, wantRelease)
	}
}

const curatorFixture = "testdata/curator_checkpoint_t12.json"

// fixtureConfig is the curator configuration behind the checked-in
// checkpoint fixture: population division and a monitor window wider than
// the controller's sketch window.
func fixtureConfig(g spatial.Discretizer) CuratorConfig {
	cfg := testConfig(g)
	cfg.MonitorWindow = 7
	return cfg
}

// TestCuratorCheckpointFixtureResumes restores a checkpoint written at t=12
// by the build that preceded the shared adaptation step — its user roster
// in the legacy {status, reported} shape — and demands that the continued
// run release exactly what that build released, in lockstep with a curator
// that never stopped.
func TestCuratorCheckpointFixtureResumes(t *testing.T) {
	const (
		T           = 24
		wantRelease = uint64(0x98293baa0e991471)
	)
	g := testGrid()
	warm, err := NewCurator(fixtureConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	drv := newProtoDriver(g, warm.Domain(), 90, T)
	for ts := 0; ts < 12; ts++ {
		drv.step(t, ts, warm)
	}
	blob, err := os.ReadFile(curatorFixture)
	if err != nil {
		t.Fatal(err)
	}
	var st CuratorState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCurator(fixtureConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&st); err != nil {
		t.Fatal(err)
	}
	for ts := 12; ts < T; ts++ {
		drv.step(t, ts, warm, resumed)
	}
	if !equalReleases(warm.Synthetic("a"), resumed.Synthetic("a")) {
		t.Fatal("curator resumed from the fixture diverged from the uninterrupted one")
	}
	if got := releaseHash(resumed.Synthetic("a")); got != wantRelease {
		t.Fatalf("resumed fixture released %#x, pinned %#x", got, wantRelease)
	}
}

package retrasyn

// Golden pins of the post-round adaptation loop as seen through the
// facade's public surfaces: per round, the divergence gauges, the active
// alarms (Health), the relayout proposal/switch series and the layout
// generation, plus the final release. The hashes were captured before the
// facade and the curator shared one adaptation step; any drift in a
// divergence value, alarm or relayout decision changes them.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/trajectory"
)

// adaptTrace formats the adaptation-visible state after one timestamp.
func adaptTrace(fw *Framework, reg *Metrics) string {
	h := fw.Health()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "t=%d gen=%d divT=%d", fw.Timestamp()-1, fw.LayoutGeneration(), h.DivergenceT)
	for _, m := range []string{"l1", "js"} {
		v := reg.Gauge("monitor.release_divergence", obs.Label{Key: "metric", Value: m}).Value()
		fmt.Fprintf(&buf, " %s=%x", m, math.Float64bits(v))
	}
	for _, s := range []string{monitor.SignalDivergence, monitor.SignalSigRatio, monitor.SignalErrors} {
		sh := h.Signals[s]
		fmt.Fprintf(&buf, " %s=%s/%d/%d", s, sh.Status, sh.Alarms, sh.LastAlarmT)
	}
	dec := reg.Histogram("relayout.decision_distance_micro").Summary()
	fmt.Fprintf(&buf, " proposals=%d switches=%d dist=%d/%x/%d last=%x",
		reg.Counter("relayout.proposals").Value(), reg.Counter("relayout.switches").Value(),
		dec.Count, math.Float64bits(dec.MeanUS), dec.MaxUS,
		math.Float64bits(reg.Gauge("relayout.last_distance").Value()))
	return buf.String()
}

// runAdaptTrace replays raw through fw like RunAdaptive, hashing the
// adaptation trace of every round; it returns the trace hash and the final
// release fingerprint.
func runAdaptTrace(t *testing.T, fw *Framework, reg *Metrics, raw *RawDataset) (uint64, uint64) {
	t.Helper()
	h := fnv.New64a()
	discretize := func() *trajectory.Stream {
		return trajectory.NewStream(trajectory.Discretize(raw, fw.Space(), trajectory.DiscretizeOptions{}))
	}
	stream := discretize()
	for ts := fw.Timestamp(); ts < stream.T; ts++ {
		gen := fw.LayoutGeneration()
		if err := fw.ProcessTimestamp(stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, adaptTrace(fw, reg))
		if fw.LayoutGeneration() != gen {
			stream = discretize()
		}
	}
	return h.Sum64(), datasetFingerprint(fw.Synthetic("trace"))
}

// adaptTraceOptions configures the pinned runs: the jump workload under a
// live monitor, with the geometric trigger at a threshold the drift crosses
// or the degradation-or trigger with the geometric leg parked out of reach.
func adaptTraceOptions(boot *Quadtree, policy TriggerPolicy, shards int) Options {
	o := monitoredOptions(boot, policy)
	o.Shards = shards
	if policy == TriggerGeometric {
		o.RelayoutThreshold = 0.05
	}
	return o
}

// TestAdaptationTraceGolden pins the facade's adaptation loop round by
// round under both trigger families and both shard paths.
func TestAdaptationTraceGolden(t *testing.T) {
	const T = 40
	raw := jumpRaw(t, T, 77)
	boot := bootQuadtree(t, raw, 8)
	golden := []struct {
		policy        TriggerPolicy
		shards        int
		trace, final  uint64
		wantMigration bool
	}{
		{TriggerGeometric, 1, 0x3037868ac6e07813, 0x25b3b51f1c53d95a, true},
		{TriggerGeometric, 2, 0x18006132e0a8635f, 0x661808558dacd4a3, true},
		{TriggerDegradationOr, 1, 0x3037868ac6e07813, 0x25b3b51f1c53d95a, true},
		{TriggerDegradationOr, 2, 0xce2591f6cc36ae49, 0x2123c16f27684b21, false},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s/shards=%d", g.policy, g.shards), func(t *testing.T) {
			o := adaptTraceOptions(boot, g.policy, g.shards)
			o.Metrics = NewMetrics()
			fw, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			trace, final := runAdaptTrace(t, fw, o.Metrics, raw)
			if g.wantMigration && fw.LayoutGeneration() == 0 {
				t.Error("pinned run never migrated — the trace does not cover a relayout")
			}
			if trace != g.trace || final != g.final {
				t.Fatalf("adaptation trace %#x / release %#x, pinned %#x / %#x", trace, final, g.trace, g.final)
			}
		})
	}
}

// checkpointWorkload is the compact adaptive run behind the checked-in
// facade checkpoint fixture: relayout every two windows and a monitor
// wider than the controller's sketch window.
func checkpointWorkload(t *testing.T) (*RawDataset, Options) {
	t.Helper()
	raw, err := GenerateDriftingHotspot(DriftConfig{
		T: 30, InitialUsers: 600, ArrivalsPerTs: 50, MeanLength: 8,
		HotspotShare: 0.85, MaxX: 32, MaxY: 32, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	boot := bootQuadtree(t, raw, 6)
	o := adaptiveOptions(boot, 1)
	o.Window = 3
	o.MonitorWindow = 8
	return raw, o
}

const facadeFixture = "testdata/facade_checkpoint_t12.json"

// TestFacadeCheckpointFixtureResumes restores a checkpoint written at t=12
// by the build that preceded the shared adaptation step and demands that
// the continued run release exactly what that build released, with the
// same number of migrations.
func TestFacadeCheckpointFixtureResumes(t *testing.T) {
	raw, o := checkpointWorkload(t)
	const wantRelease, wantGen = uint64(0x64cd3c1bf99d3cde), 2
	blob, err := os.ReadFile(facadeFixture)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := Restore(o, cp)
	if err != nil {
		t.Fatal(err)
	}
	_, final := runAdaptTrace(t, fw, NewMetrics(), raw)
	if final != wantRelease || fw.LayoutGeneration() != wantGen {
		t.Fatalf("resumed fixture released %#x over %d generations, pinned %#x over %d",
			final, fw.LayoutGeneration(), wantRelease, wantGen)
	}
}

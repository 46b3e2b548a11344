package adapt

import (
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/spatial"
)

func unitGrid(t *testing.T, k int) *grid.System {
	t.Helper()
	g, err := grid.New(k, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStepClosesMonitorBeforeObserving pins the loop's order: a round's
// divergence reads the releases before it, and its own release only joins
// the sketch afterwards.
func TestStepClosesMonitorBeforeObserving(t *testing.T) {
	g := unitGrid(t, 2)
	l, err := New(Config{Space: g, W: 2, MonitorWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	noMigrate := func(spatial.Discretizer) error { t.Fatal("migrated without a cadence"); return nil }
	out, err := l.Step(Round{T: 0, Space: g, Cells: []spatial.Cell{0}, CellEst: []float64{5, 0, 0, 0}}, noMigrate)
	if err != nil || out.Monitor.Computed {
		t.Fatalf("first round compared against its own release: %+v, %v", out, err)
	}
	out, err = l.Step(Round{T: 1, Space: g, Cells: []spatial.Cell{3}, CellEst: []float64{5, 0, 0, 0}}, noMigrate)
	if err != nil || !out.Monitor.Computed || out.Monitor.L1 != 0 {
		t.Fatalf("second round did not read exactly the first release: %+v, %v", out, err)
	}
}

// TestSpreadIndexesByBufferPosition pins the spread sequence: indexed by
// the position in the buffer, inside the cell, and never collapsing two
// streams of one cell onto one point.
func TestSpreadIndexesByBufferPosition(t *testing.T) {
	g := unitGrid(t, 4)
	pts := spread(g, []spatial.Cell{5, 5}, nil)
	more := spread(g, []spatial.Cell{5}, pts[:1])
	if pts[0] == pts[1] || more[1] != pts[1] {
		t.Fatalf("spread points %v / %v", pts, more)
	}
	for _, p := range pts {
		if g.CellOf(p.X, p.Y) != 5 {
			t.Fatalf("point %v spread outside cell 5", p)
		}
	}
}

// TestRelayoutForce pins the manual path: below the threshold nothing
// migrates unless forced, and a forced switch is recorded.
func TestRelayoutForce(t *testing.T) {
	g := unitGrid(t, 4)
	l, err := New(Config{Space: g, W: 2, Threshold: 0.999, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	corner := make([]spatial.Cell, 200)
	for ts := 0; ts < 2; ts++ {
		if _, err := l.Step(Round{T: ts, Space: g, Cells: corner}, nil); err != nil {
			t.Fatal(err)
		}
	}
	migrations := 0
	migrate := func(spatial.Discretizer) error { migrations++; return nil }
	if _, switched, err := l.Relayout(g, false, migrate); err != nil || switched || migrations != 0 {
		t.Fatalf("unforced relayout below threshold: switched=%v migrations=%d err=%v", switched, migrations, err)
	}
	prop, switched, err := l.Relayout(g, true, migrate)
	if err != nil || !switched || migrations != 1 || prop.Target == nil {
		t.Fatalf("forced relayout: switched=%v migrations=%d err=%v", switched, migrations, err)
	}
	if l.Controller().Relayouts() != 1 {
		t.Fatalf("forced switch not recorded: %d", l.Controller().Relayouts())
	}
}

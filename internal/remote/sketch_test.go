package remote

import (
	"testing"

	"retrasyn/internal/allocation"
)

// TestCuratorSketchWindowSpansTime pins the release sketch's window across
// a gap in the timestamps the curator served: timestamps it skipped still
// age the window, so after the gap neither the relayout controller's
// window (the checkpointed sketch) nor the monitor's holds the releases
// from before it.
func TestCuratorSketchWindowSpansTime(t *testing.T) {
	g := testGrid()
	cfg := testConfig(g)
	cfg.Strategy = &allocation.Uniform{Division: allocation.Population}
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := newProtoDriver(g, cur.Domain(), 120, 40)
	for ts := 0; ts < 6; ts++ {
		drv.step(t, ts, cur)
	}
	const after = 14 // (14−W, 14] holds nothing served before the gap
	drv.step(t, after, cur)

	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for slot, ts := range st.Relayout.Tracker.Ts {
		if ts >= 0 && ts != after {
			t.Errorf("sketch slot %d still holds timestamp %d after the gap to %d", slot, ts, after)
		}
	}
	if rounds, _ := cur.Stats(); rounds == 0 {
		t.Fatal("no reported rounds")
	}
	if got := cur.Health().DivergenceT; got == after {
		t.Fatalf("monitor compared timestamp %d against releases from before the gap", after)
	}
}

// TestCuratorRestoredMonitorReadsSketch pins what the monitor sees after a
// restore: the checkpointed release sketch, so the restored curator's first
// round computes the same divergence as the curator that never stopped
// (the monitor window equals the controller window here).
func TestCuratorRestoredMonitorReadsSketch(t *testing.T) {
	g := testGrid()
	cfg := testConfig(g)
	cfg.Strategy = &allocation.Uniform{Division: allocation.Population}
	donor, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := newProtoDriver(g, donor.Domain(), 120, 24)
	for ts := 0; ts < 10; ts++ {
		drv.step(t, ts, donor)
	}
	st, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(st); err != nil {
		t.Fatal(err)
	}
	drv.step(t, 10, donor, resumed)
	want, got := donor.Health(), resumed.Health()
	if want.DivergenceT != 10 {
		t.Fatalf("uninterrupted curator computed no divergence at t=10 (last %d)", want.DivergenceT)
	}
	if got.DivergenceT != 10 || got.DivergenceJS != want.DivergenceJS || got.DivergenceL1 != want.DivergenceL1 {
		t.Fatalf("restored monitor's first round: t=%d js=%v l1=%v, want t=10 js=%v l1=%v",
			got.DivergenceT, got.DivergenceJS, got.DivergenceL1, want.DivergenceJS, want.DivergenceL1)
	}
}

// TestCuratorBudgetLedgerChargesRoundOnce pins the privacy ledger of a
// budget-division curator: ε_t is charged once per reported round, not once
// per report, so no window of w timestamps sums past ε.
func TestCuratorBudgetLedgerChargesRoundOnce(t *testing.T) {
	g := testGrid()
	cfg := testConfig(g)
	cfg.Division = allocation.Budget
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const T = 20
	cur.EnableLedger(T)
	drv := newProtoDriver(g, cur.Domain(), 90, T)
	for ts := 0; ts < T; ts++ {
		drv.step(t, ts, cur)
	}
	if _, reports := cur.Stats(); reports < 2*T {
		t.Fatalf("only %d reports — too few to tell a per-report charge from a per-round one", reports)
	}
	if got := cur.Ledger().MaxWindowSum(cfg.W); got > cfg.Epsilon+1e-9 {
		t.Fatalf("ledger window sum %v exceeds ε = %v", got, cfg.Epsilon)
	}
}

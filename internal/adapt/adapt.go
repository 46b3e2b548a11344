// Package adapt is the post-round adaptation loop shared by the in-process
// facade and the HTTP curator: after every closed timestamp it spreads the
// released cells into points, closes the utility monitor's round, folds
// the release into the one sketch of the released stream, and — when a
// rebuild is due — proposes a fresh layout and migrates onto it. It reads
// only public data (the released stream and the DP estimates) and never
// touches the engines' randomness.
package adapt

import (
	"fmt"

	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
)

// Config configures a Loop. Space is the boot layout (rebuilds tile its
// bounds; its cell count is the default leaf budget), W the window size,
// Every the periodic rebuild cadence in windows (0: none), and Threshold,
// Leaves and Trigger the switch policy of relayout.ControllerOptions.
// MonitorWindow > 0 runs the utility monitor over that many released
// timestamps. Manual marks an owner that calls Loop.Relayout on demand; the
// relayout series are registered only when proposals can happen (Every > 0
// or Manual), so a monitor-only loop publishes none.
type Config struct {
	Space         spatial.Discretizer
	W, Every      int
	Threshold     float64
	Leaves        int
	Trigger       relayout.TriggerPolicy
	MonitorWindow int
	Manual        bool
	Metrics       *obs.Registry
}

// Loop is the adaptation step. The relayout controller owns the release
// sketch; the monitor reads its window from the same sketch. Not safe for
// concurrent use.
type Loop struct {
	ctl *relayout.Controller
	mon *monitor.Monitor // nil when monitoring is off
	pts []spatial.Point  // spread scratch, reused across rounds
}

// New builds a loop.
func New(cfg Config) (*Loop, error) {
	if cfg.Every > 0 && !relayout.Migratable(cfg.Space) {
		// Fail at construction, not at the first periodic rebuild — by then
		// the round has already committed.
		return nil, fmt.Errorf("adapt: periodic rebuilds need a discretizer exposing cell geometry (grid, quadtree or geofence), got %T", cfg.Space)
	}
	leaves := cfg.Leaves
	if leaves == 0 {
		leaves = cfg.Space.NumCells()
	}
	ctl, err := relayout.NewController(relayout.ControllerOptions{
		Every:     cfg.Every,
		W:         cfg.W,
		Threshold: cfg.Threshold,
		Quadtree:  spatial.QuadtreeOptions{MaxLeaves: leaves},
		Bounds:    cfg.Space.Bounds(),
		Trigger:   cfg.Trigger,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Every > 0 || cfg.Manual {
		ctl.SetMetrics(cfg.Metrics)
	}
	l := &Loop{ctl: ctl}
	if cfg.MonitorWindow > 0 {
		mon, err := monitor.New(monitor.Options{Window: cfg.MonitorWindow})
		if err != nil {
			return nil, err
		}
		mon.SetMetrics(cfg.Metrics)
		ctl.SetAlarmSource(mon)
		ctl.Sketch().Retain(cfg.MonitorWindow)
		l.mon = mon
	}
	return l, nil
}

// Controller returns the relayout controller (its state rides checkpoints).
func (l *Loop) Controller() *relayout.Controller { return l.ctl }

// Monitor returns the utility monitor, nil when monitoring is off or l is
// nil (a nil *monitor.Monitor is a valid "off" value).
func (l *Loop) Monitor() *monitor.Monitor {
	if l == nil {
		return nil
	}
	return l.mon
}

// Round is one closed timestamp as the loop sees it — what differs between
// the facade and the curator: the layout it ran on, the released cells (the
// live synthetic streams' positions), the per-cell DP-estimated mass (nil
// on an unreported round), the significance ratio and the cumulative
// round-error count.
type Round struct {
	T        int
	Space    spatial.Discretizer
	Cells    []spatial.Cell
	CellEst  []float64
	SigRatio float64
	Errors   int64
}

// Outcome is what one Step did: the monitor's round report and, when a
// rebuild was due, the proposal and whether the system switched onto it.
type Outcome struct {
	Monitor  monitor.RoundReport
	Proposal relayout.Proposal
	Switched bool
}

// Migrate moves the live system onto a new layout; the loop calls it when
// a proposal switches.
type Migrate func(spatial.Discretizer) error

// Step runs the loop for one closed timestamp: spread the released cells,
// close the monitor's round, fold the release into the sketch, and at a
// rebuild boundary propose and migrate. The monitor closes its round before
// any relayout decision so the degradation trigger sees alarms that include
// timestamp r.T.
func (l *Loop) Step(r Round, migrate Migrate) (out Outcome, err error) {
	l.pts = spread(r.Space, r.Cells, l.pts[:0])
	out.Monitor = l.mon.Round(r.T, r.Space, l.ctl.Sketch(), r.CellEst, r.SigRatio, r.Errors)
	l.ctl.Observe(r.T, l.pts)
	if l.ctl.Due(r.T) {
		out.Proposal, out.Switched, err = l.Relayout(r.Space, false, migrate)
	}
	return out, err
}

// Relayout proposes a layout grown from the sketch and migrates onto it
// when the trigger policy — or force, for any layout that differs from
// current at all — says to switch. After a switch the monitor re-learns
// the baselines of its layout-dependent signals on the new layout.
func (l *Loop) Relayout(current spatial.Discretizer, force bool, migrate Migrate) (relayout.Proposal, bool, error) {
	prop, err := l.ctl.Propose(current)
	if err != nil || prop.Target == nil || prop.Target.Fingerprint() == current.Fingerprint() || !(prop.Switch || force) {
		return prop, false, err
	}
	if err := migrate(prop.Target); err != nil {
		return prop, false, err
	}
	l.ctl.NoteSwitch(prop.Distance)
	l.mon.NoteRelayout()
	return prop, true, nil
}

// spread appends the released positions of cells to buf. A released cell
// only says "somewhere in this cell", so its point is spread over the cell's
// geometry (boxes, or the polygon of a geofenced cell, never its gap space)
// by a deterministic low-discrepancy sequence — no RNG, so observing the
// release never perturbs it; collapsing coarse cells onto their centers
// would make rebuilds split forever around single points. Backends without
// cell geometry fall back to centers. The sequence is indexed by position
// in buf, so one cell's streams from different shards land apart.
func spread(space spatial.Discretizer, cells []spatial.Cell, buf []spatial.Point) []spatial.Point {
	boxed, _ := space.(spatial.Boxed)
	poly, _ := space.(spatial.Overlapper)
	for _, c := range cells {
		switch {
		case boxed != nil:
			buf = append(buf, relayout.SpreadInBox(boxed.CellBox(c), len(buf)))
		case poly != nil:
			buf = append(buf, relayout.SpreadInPieces(poly.CellPieces(c), len(buf)))
		default:
			x, y := space.Center(c)
			buf = append(buf, spatial.Point{X: x, Y: y})
		}
	}
	return buf
}

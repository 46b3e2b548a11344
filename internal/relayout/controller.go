package relayout

import (
	"fmt"

	"retrasyn/internal/obs"
	"retrasyn/internal/spatial"
)

// DefaultThreshold is the layout-distance threshold below which a proposed
// rebuild is not worth the migration churn.
const DefaultThreshold = 0.1

// ControllerOptions configures a Controller.
type ControllerOptions struct {
	// Every is the rebuild cadence in windows: a fresh layout is grown every
	// Every×W timestamps. ≤ 0 disables periodic rebuilds (the sketch still
	// accumulates, so manual Propose calls work).
	Every int
	// W is the engine's window size (timestamps per window).
	W int
	// Threshold is the minimum layout distance at which a proposed layout
	// replaces the current one; below it the proposal is discarded, so
	// stable workloads never churn. Default DefaultThreshold.
	Threshold float64
	// Quadtree parameterizes the rebuilt trees.
	Quadtree spatial.QuadtreeOptions
	// Bounds is the continuous space every rebuilt layout tiles (the boot
	// discretizer's bounds).
	Bounds spatial.Bounds
	// SketchWindows is the sliding sketch length in windows (default:
	// max(Every, 1)) — how much released history a rebuild looks at.
	SketchWindows int
	// Trigger selects how Propose turns a measured distance into a switch
	// recommendation (trigger.go). Empty means TriggerGeometric. The
	// degradation policies additionally need SetAlarmSource; without one
	// they see a permanently calm monitor.
	Trigger TriggerPolicy
}

func (o *ControllerOptions) defaults() error {
	if o.W < 1 {
		return fmt.Errorf("relayout: controller W must be ≥ 1, got %d", o.W)
	}
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.Threshold < 0 || o.Threshold >= 1 {
		return fmt.Errorf("relayout: controller threshold %v outside [0, 1)", o.Threshold)
	}
	if !o.Bounds.Valid() {
		return fmt.Errorf("relayout: controller bounds %+v invalid", o.Bounds)
	}
	if o.SketchWindows <= 0 {
		o.SketchWindows = o.Every
		if o.SketchWindows <= 0 {
			o.SketchWindows = 1
		}
	}
	if o.Quadtree.MaxLeaves < 1 {
		return fmt.Errorf("relayout: controller quadtree MaxLeaves must be ≥ 1, got %d", o.Quadtree.MaxLeaves)
	}
	return o.Trigger.Validate()
}

// Proposal is the outcome of one rebuild: the candidate layout, its distance
// from the current one, and whether the controller recommends switching.
type Proposal struct {
	// Target is the rebuilt quadtree (nil when the sketch was empty).
	Target *spatial.Quadtree
	// Distance is the layout distance between the current layout and Target
	// (0 when the fingerprints already match).
	Distance float64
	// Geometric reports whether Distance crossed the threshold.
	Geometric bool
	// Alarmed reports whether the monitor was alarming at decision time
	// (always false under TriggerGeometric or without an alarm source).
	Alarmed bool
	// Switch is the trigger policy's verdict over Geometric and Alarmed —
	// whether the controller recommends migrating onto Target.
	Switch bool
}

// Controller owns the rebuild/switch policy of online re-discretization:
// feed it the released positions every timestamp (Observe), ask it at window
// boundaries whether a rebuild is due (Due), and let Propose grow a fresh
// quadtree from the last SketchWindows×W timestamps of the sketch and
// measure it against the current layout. The caller performs the actual
// migration and reports it back with NoteSwitch. The sketch is the one copy
// of the released stream; other readers share it through Sketch. Not safe
// for concurrent use.
type Controller struct {
	opts      ControllerOptions
	sketch    *DensityTracker
	relayouts int
	lastDist  float64

	// Run-scoped collaborators (nil-safe no-ops unless the setters ran);
	// never part of ControllerState.
	alarms     AlarmSource
	mProposals *obs.Counter
	mSwitches  *obs.Counter
	mDecision  *obs.Histogram
	mLastDist  *obs.Gauge
}

// NewController validates the options and creates a controller.
func NewController(opts ControllerOptions) (*Controller, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return &Controller{
		opts:   opts,
		sketch: NewDensityTracker(opts.SketchWindows * opts.W),
	}, nil
}

// window is the number of timestamps a proposal reads.
func (c *Controller) window() int { return c.opts.SketchWindows * c.opts.W }

// Sketch returns the controller's release sketch, for readers that share it
// (Retain widens it for a reader with a longer window).
func (c *Controller) Sketch() *DensityTracker { return c.sketch }

// SetMetrics registers the controller's observability series on reg: rebuild
// proposals, committed switches, the layout distance measured at each
// decision (micro-distance histogram: distance × 1e6, so the [0,1) range
// resolves), and the distance of the last committed switch. A nil registry
// leaves instrumentation off.
func (c *Controller) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mProposals = reg.Counter("relayout.proposals")
	c.mSwitches = reg.Counter("relayout.switches")
	c.mDecision = reg.Histogram("relayout.decision_distance_micro")
	c.mLastDist = reg.Gauge("relayout.last_distance")
}

// SetAlarmSource wires the utility monitor's alarm state into the trigger
// policy. Like the metrics, the source is run-scoped and never serialized.
func (c *Controller) SetAlarmSource(src AlarmSource) { c.alarms = src }

// Trigger returns the configured trigger policy (normalized: never empty).
func (c *Controller) Trigger() TriggerPolicy {
	if c.opts.Trigger == "" {
		return TriggerGeometric
	}
	return c.opts.Trigger
}

// Observe records the released synthetic positions at timestamp t.
func (c *Controller) Observe(t int, pts []spatial.Point) { c.sketch.Observe(t, pts) }

// Due reports whether processing timestamp t completed a rebuild period:
// t+1 is a multiple of Every×W and the controller's window of the sketch
// holds points.
func (c *Controller) Due(t int) bool {
	if c.opts.Every <= 0 {
		return false
	}
	period := c.opts.Every * c.opts.W
	return (t+1)%period == 0 && c.sketch.size(c.window()) > 0
}

// Propose grows a fresh quadtree from the sketch's last SketchWindows×W
// timestamps and measures its layout distance from current. It never
// mutates the controller; apply the migration and call NoteSwitch if you
// follow the recommendation.
func (c *Controller) Propose(current spatial.Discretizer) (Proposal, error) {
	pts := c.sketch.recent(c.window())
	if len(pts) == 0 {
		return Proposal{}, nil
	}
	qt, err := spatial.NewQuadtree(c.opts.Bounds, pts, c.opts.Quadtree)
	if err != nil {
		return Proposal{}, fmt.Errorf("relayout: rebuild quadtree: %w", err)
	}
	if qt.Fingerprint() == current.Fingerprint() {
		return Proposal{Target: qt, Distance: 0, Switch: false}, nil
	}
	mig, err := NewMigration(current, qt)
	if err != nil {
		return Proposal{}, err
	}
	d := mig.Distance()
	c.mProposals.Inc()
	c.mDecision.ObserveValue(int64(d * 1e6))
	geometric := d >= c.opts.Threshold
	alarmed := false
	if c.alarms != nil && c.Trigger().UsesAlarms() {
		alarmed = c.alarms.Alarming()
	}
	return Proposal{
		Target:    qt,
		Distance:  d,
		Geometric: geometric,
		Alarmed:   alarmed,
		Switch:    c.Trigger().Decide(geometric, alarmed),
	}, nil
}

// NoteSwitch records that the caller migrated onto a proposed layout.
func (c *Controller) NoteSwitch(distance float64) {
	c.relayouts++
	c.lastDist = distance
	c.mSwitches.Inc()
	c.mLastDist.Set(distance)
}

// Relayouts returns how many layout switches have been committed.
func (c *Controller) Relayouts() int { return c.relayouts }

// LastDistance returns the layout distance of the most recent switch.
func (c *Controller) LastDistance() float64 { return c.lastDist }

// ControllerState is the serializable form of a Controller, embedded in
// framework checkpoints so rebuild decisions after a restore match the
// uninterrupted run exactly. Tracker holds the controller's own window of
// the sketch only, however far another reader widened it.
type ControllerState struct {
	Tracker   TrackerState `json:"tracker"`
	Relayouts int          `json:"relayouts"`
	LastDist  float64      `json:"last_dist"`
}

// State exports a deep copy of the controller's mutable state.
func (c *Controller) State() ControllerState {
	return ControllerState{Tracker: c.sketch.stateWindow(c.window()), Relayouts: c.relayouts, LastDist: c.lastDist}
}

// Restore replaces the controller's state with a previously exported one.
func (c *Controller) Restore(st ControllerState) error {
	if err := c.sketch.restoreWindow(st.Tracker, c.window()); err != nil {
		return err
	}
	c.relayouts = st.Relayouts
	c.lastDist = st.LastDist
	return nil
}

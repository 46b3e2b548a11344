// Package relayout implements online adaptive re-discretization: rebuilding
// the spatial layout from the *released* synthetic stream while the engine
// runs, and migrating live engine state onto the new layout.
//
// The spatial discretization (internal/spatial) is frozen at boot from a
// historical density sketch. When the workload's hotspots drift, the boot
// layout's fine leaves go cold and its coarse leaves go hot, and the domain
// shrink the adaptive quadtree bought evaporates. This package closes the
// loop:
//
//   - a DensityTracker accumulates a sliding-window density sketch from the
//     released synthetic trajectories;
//   - a Controller periodically grows a fresh quadtree from that sketch and
//     decides — by a layout-distance threshold — whether switching is worth
//     the churn;
//   - a Migration computes cell-overlap area weights between the old and new
//     discretizers and resamples engine state across layouts: mobility
//     transition/enter/quit mass is pushed through the overlap matrix,
//     tracker histories are re-indexed, and in-flight synthetic trajectories
//     are remapped to the overlapping new cell.
//
// Privacy: the released synthetic stream is a post-processing of the LDP
// outputs (paper Theorem 2), so deriving a new layout from it consumes no
// additional privacy budget — unlike sketching the private input stream,
// which would leak hotspot locations outside the ε accounting. This mirrors
// how PrivTrace adapts Markov-model granularity to observed density while
// keeping the adaptation inside the privacy analysis.
package relayout

import (
	"fmt"
	"math"
	"sort"

	"retrasyn/internal/spatial"
)

// SpreadInBox places the i-th point of a batch inside a box using the R2
// low-discrepancy sequence (Roberts' plastic-constant rule), covering the
// box area deterministically. Released positions are spread this way: a
// released cell only says "somewhere in this box", and collapsing whole
// cells onto their centers would both hide density spread inside coarse
// regions and make rebuilds split forever around single heavy points. The
// sequence involves no RNG, so observing the release never perturbs it.
func SpreadInBox(b spatial.Bounds, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	fx := math.Mod(float64(i+1)*a1, 1)
	fy := math.Mod(float64(i+1)*a2, 1)
	return spatial.Point{X: b.MinX + fx*b.Width(), Y: b.MinY + fy*b.Height()}
}

// SpreadInPieces is SpreadInBox for polygonal cells (spatial.Overlapper):
// the i-th point lands inside the union of the cell's convex pieces instead
// of its bounding box, so geofenced releases sketch density inside the fence
// rather than over gap space the fence deliberately excludes. A golden-ratio
// scalar picks a piece triangle area-proportionally and the R2 pair folds
// onto it; like SpreadInBox the construction involves no RNG.
func SpreadInPieces(pieces [][]spatial.Point, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	const golden = 0.6180339887498949
	// Fan-triangulate the convex pieces and pick a triangle by cumulative
	// area at the golden-ratio sequence position.
	total := 0.0
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			total += triArea(ring[0], ring[k], ring[k+1])
		}
	}
	if total <= 0 {
		return spatial.Point{}
	}
	target := math.Mod(float64(i+1)*golden, 1) * total
	var a, b, c spatial.Point
	acc := 0.0
	found := false
pick:
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			a, b, c = ring[0], ring[k], ring[k+1]
			acc += triArea(a, b, c)
			if acc >= target {
				found = true
				break pick
			}
		}
	}
	if !found { // float drift past the last triangle
		last := pieces[len(pieces)-1]
		a, b, c = last[0], last[len(last)-2], last[len(last)-1]
	}
	u := math.Mod(float64(i+1)*a1, 1)
	v := math.Mod(float64(i+1)*a2, 1)
	if u+v > 1 { // fold the unit square onto the triangle
		u, v = 1-u, 1-v
	}
	return spatial.Point{
		X: a.X + u*(b.X-a.X) + v*(c.X-a.X),
		Y: a.Y + u*(b.Y-a.Y) + v*(c.Y-a.Y),
	}
}

func triArea(a, b, c spatial.Point) float64 {
	return math.Abs((b.X-a.X)*(c.Y-a.Y)-(b.Y-a.Y)*(c.X-a.X)) / 2
}

// DensityTracker is the sliding-window sketch of the released stream: the
// released positions of every timestamp in (newest−cap, newest], kept as
// continuous points so the sketch survives layout switches unchanged. The
// window spans time, not observations: a timestamp never observed (a round
// the curator skipped) still ages older ones out. Readers take sub-windows
// of it — the relayout controller its last SketchWindows×W timestamps, the
// utility monitor the MonitorWindow timestamps before the round it closes —
// so one sketch serves both. Not safe for concurrent use.
type DensityTracker struct {
	cap     int
	entries []sketchEntry // ascending t
}

type sketchEntry struct {
	t   int
	pts []spatial.Point
}

// NewDensityTracker creates a tracker retaining the last capTimestamps
// timestamps of observations.
func NewDensityTracker(capTimestamps int) *DensityTracker {
	return &DensityTracker{cap: max(capTimestamps, 1)}
}

// Retain widens the tracker to at least n timestamps, for a reader whose
// window is longer than the owner's.
func (d *DensityTracker) Retain(n int) { d.cap = max(d.cap, n) }

// newest returns the latest observed timestamp, -1 when empty.
func (d *DensityTracker) newest() int {
	if len(d.entries) == 0 {
		return -1
	}
	return d.entries[len(d.entries)-1].t
}

// Observe records the released positions at timestamp t (copied) and
// retires every timestamp at or before t−cap. Observing the newest
// timestamp again replaces its points; older timestamps are ignored.
func (d *DensityTracker) Observe(t int, pts []spatial.Point) {
	if t < 0 || t < d.newest() {
		return
	}
	if t == d.newest() {
		d.entries = d.entries[:len(d.entries)-1]
	}
	drop := 0
	for drop < len(d.entries) && d.entries[drop].t <= t-d.cap {
		drop++
	}
	var buf []spatial.Point
	if drop > 0 {
		buf = d.entries[0].pts[:0] // recycle the oldest retired buffer
	}
	live := copy(d.entries, d.entries[drop:])
	clear(d.entries[live:]) // no retired points stay reachable
	d.entries = append(d.entries[:live], sketchEntry{t: t, pts: append(buf, pts...)})
}

// Len returns the number of points currently held.
func (d *DensityTracker) Len() int { return d.size(d.cap) }

// Each calls fn on every held point of the timestamps in [from, to], oldest
// timestamp first and in observation order within a timestamp.
func (d *DensityTracker) Each(from, to int, fn func(spatial.Point)) {
	for _, e := range d.entries {
		if e.t >= from && e.t <= to {
			for _, p := range e.pts {
				fn(p)
			}
		}
	}
}

// size returns the number of points of the last n timestamps,
// (newest−n, newest].
func (d *DensityTracker) size(n int) int {
	total := 0
	for _, e := range d.entries {
		if e.t > d.newest()-n {
			total += len(e.pts)
		}
	}
	return total
}

// recent returns the points of the last n timestamps in Each order; the
// deterministic order keeps quadtree rebuilds reproducible.
func (d *DensityTracker) recent(n int) []spatial.Point {
	out := make([]spatial.Point, 0, d.size(n))
	d.Each(d.newest()-n+1, d.newest(), func(p spatial.Point) { out = append(out, p) })
	return out
}

// Points returns every held point, ordered by timestamp (oldest first) and
// within a timestamp by observation order.
func (d *DensityTracker) Points() []spatial.Point { return d.recent(d.cap) }

// TrackerState is the serializable form of a DensityTracker window: a ring
// of Cap slots keyed t % Cap, Ts[i] = -1 marking an empty slot.
type TrackerState struct {
	Cap   int               `json:"cap"`
	Slots [][]spatial.Point `json:"slots"`
	Ts    []int             `json:"ts"`
}

// State exports a deep copy of the tracker.
func (d *DensityTracker) State() TrackerState { return d.stateWindow(d.cap) }

// Restore replaces the tracker's contents with a previously exported state.
// The capacity must match.
func (d *DensityTracker) Restore(st TrackerState) error { return d.restoreWindow(st, d.cap) }

// stateWindow exports the last win timestamps only, so a checkpoint does
// not depend on how far a reader widened the tracker.
func (d *DensityTracker) stateWindow(win int) TrackerState {
	st := TrackerState{Cap: win, Slots: make([][]spatial.Point, win), Ts: make([]int, win)}
	for i := range st.Ts {
		st.Ts[i] = -1
	}
	for _, e := range d.entries {
		if e.t > d.newest()-win {
			st.Ts[e.t%win] = e.t
			st.Slots[e.t%win] = append([]spatial.Point(nil), e.pts...)
		}
	}
	return st
}

// restoreWindow loads a state exported by stateWindow(win).
func (d *DensityTracker) restoreWindow(st TrackerState, win int) error {
	if st.Cap != win || len(st.Slots) != win || len(st.Ts) != win {
		return fmt.Errorf("relayout: tracker restore capacity %d (slots %d, ts %d) ≠ %d",
			st.Cap, len(st.Slots), len(st.Ts), win)
	}
	order := make([]int, win)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return st.Ts[order[a]] < st.Ts[order[b]] })
	d.entries = nil
	for _, slot := range order {
		d.Observe(st.Ts[slot], st.Slots[slot])
	}
	return nil
}

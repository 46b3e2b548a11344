package remote

import (
	"fmt"
	"strings"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/synthesis"
)

// Curator checkpointing: Snapshot exports the complete protocol and model
// state — including a round that is currently open — so the curator process
// can be restarted (or migrated) without losing the stream. A restored
// curator continues the protocol with releases bit-identical to an
// uninterrupted one.

// CuratorStateVersion guards the snapshot format.
const CuratorStateVersion = 1

// CuratorFingerprint captures the config a snapshot is only valid for.
type CuratorFingerprint struct {
	// Discretizer is the stable layout fingerprint of the spatial backend.
	// Snapshots from pre-spatial builds omit it; Restore accepts those when
	// the curator runs the uniform grid, the only backend that existed then.
	Discretizer string  `json:"discretizer,omitempty"`
	DomainSize  int     `json:"domain_size"`
	Epsilon     float64 `json:"epsilon"`
	W           int     `json:"w"`
	Division    int     `json:"division"`
	Lambda      float64 `json:"lambda"`
	Kappa       int     `json:"kappa"`
	Seed        uint64  `json:"seed"`
}

// fingerprint returns the boot-time config fingerprint, frozen at NewCurator
// so checkpoints taken before and after layout migrations all validate
// against the same construction config (the current layout is recorded
// separately in CuratorState.Generation/Layout).
func (c *Curator) fingerprint() CuratorFingerprint { return c.bootFP }

func (c *Curator) configFingerprint() CuratorFingerprint {
	return CuratorFingerprint{
		Discretizer: c.cfg.Space.Fingerprint(),
		DomainSize:  c.live.Dom.Size(),
		Epsilon:     c.cfg.Epsilon,
		W:           c.cfg.W,
		Division:    int(c.cfg.Division),
		Lambda:      c.cfg.Lambda,
		Kappa:       c.cfg.Kappa,
		Seed:        c.cfg.Seed,
	}
}

// CuratorState is the serializable processing state of a Curator, including
// any round currently open (phase, assignments and the partial aggregate).
type CuratorState struct {
	Version int                `json:"version"`
	Config  CuratorFingerprint `json:"config"`

	// Generation counts the layout migrations applied before the snapshot;
	// when > 0, Layout/LayoutFingerprint describe the discretization in
	// effect so Restore can rebuild it. Relayout carries the density-sketch
	// controller, so rebuild decisions after a restore match the
	// uninterrupted curator exactly.
	Generation        int                       `json:"generation,omitempty"`
	Layout            *relayout.Layout          `json:"layout,omitempty"`
	LayoutFingerprint string                    `json:"layout_fp,omitempty"`
	Relayout          *relayout.ControllerState `json:"relayout,omitempty"`

	T           int                `json:"t"`
	Phase       int                `json:"phase"`
	Present     map[int]bool       `json:"present"`
	PrevPresent map[int]bool       `json:"prev_present"`
	Assignments map[int]Assignment `json:"assignments,omitempty"`
	EpsRound    float64            `json:"eps_round"`
	// AggCounts/AggN carry an open round's partial aggregate; AggCounts is
	// nil when the round has no aggregator (or between rounds).
	AggCounts []int `json:"agg_counts,omitempty"`
	AggN      int   `json:"agg_n"`

	Model        mobility.State `json:"model"`
	Bootstrapped bool           `json:"bootstrapped"`

	// Roster is the user lifecycle. Snapshots written before the curator
	// shared core.UserTracker carry only its status and reported fields.
	Roster       core.UserTrackerState         `json:"roster"`
	Dev          allocation.DevState           `json:"dev"`
	Sig          allocation.SigState           `json:"sig"`
	BudgetWindow *allocation.BudgetWindowState `json:"budget_window,omitempty"`
	Ledger       *allocation.Ledger            `json:"ledger,omitempty"`

	RNG     []byte           `json:"rng"`
	Rounds  int              `json:"rounds"`
	Reports int              `json:"reports"`
	Synth   synthesis.State  `json:"synth"`
	Timings pipeline.Timings `json:"timings"`
}

// Snapshot exports the curator's complete state as a deep copy; handler
// traffic continuing after the call never mutates it.
func (c *Curator) Snapshot() (*CuratorState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rngState, err := c.rng.State()
	if err != nil {
		return nil, fmt.Errorf("remote: snapshot rng: %w", err)
	}
	ctlState := c.adapt.Controller().State()
	st := &CuratorState{
		Version:      CuratorStateVersion,
		Config:       c.fingerprint(),
		Generation:   c.generation,
		Relayout:     &ctlState,
		T:            c.t,
		Phase:        int(c.phase),
		Present:      copyBoolSet(c.present),
		PrevPresent:  copyBoolSet(c.prevPresent),
		EpsRound:     c.epsRound,
		Model:        c.model.State(),
		Bootstrapped: c.live.Updater.Bootstrapped(),
		Roster:       c.users.State(),
		Dev:          c.live.Dev.State(),
		Sig:          c.sig.State(),
		Ledger:       c.ledger.Clone(),
		RNG:          rngState,
		Rounds:       c.rounds,
		Reports:      c.reports,
		Synth:        c.live.Synth().State(),
		Timings:      c.timings,
	}
	if c.assignments != nil {
		st.Assignments = make(map[int]Assignment, len(c.assignments))
		for id, a := range c.assignments {
			st.Assignments[id] = a
		}
	}
	if c.agg != nil {
		st.AggCounts = c.agg.Counts()
		st.AggN = c.agg.N()
	}
	if c.budgetWin != nil {
		bw := c.budgetWin.State()
		st.BudgetWindow = &bw
	}
	if c.generation > 0 {
		l, err := relayout.LayoutOf(c.live.Space)
		if err != nil {
			return nil, fmt.Errorf("remote: snapshot layout: %w", err)
		}
		st.Layout = &l
		st.LayoutFingerprint = c.live.Space.Fingerprint()
	}
	return st, nil
}

// Restore replaces the curator's state with a previously exported snapshot.
// The curator must have been constructed with a config matching the
// snapshot's fingerprint.
func (c *Curator) Restore(st *CuratorState) error {
	if st == nil {
		return fmt.Errorf("remote: Restore on nil state")
	}
	if st.Version != CuratorStateVersion {
		return fmt.Errorf("remote: snapshot version %d, curator supports %d", st.Version, CuratorStateVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	got, want := c.fingerprint(), st.Config
	if want.Discretizer == "" && strings.HasPrefix(got.Discretizer, "uniform:") {
		// Legacy pre-spatial snapshot; see core/state.go for the rationale.
		want.Discretizer = got.Discretizer
	}
	if got != want {
		return fmt.Errorf("remote: snapshot config %+v does not match curator config %+v", want, got)
	}
	if (st.BudgetWindow != nil) != (c.budgetWin != nil) {
		return fmt.Errorf("remote: snapshot division state does not match curator division")
	}
	if st.Phase != int(phaseIdle) && st.Phase != int(phasePlanned) {
		return fmt.Errorf("remote: snapshot phase %d invalid", st.Phase)
	}
	// Put the curator on the layout the snapshot was taken at before loading
	// the layout-sized state (model vector, aggregate, synthetic cells).
	if err := c.live.Adopt(c.cfg.Space, st.Generation, st.Layout, st.LayoutFingerprint); err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	c.model, c.generation = c.live.Model, st.Generation
	if st.Relayout != nil {
		if err := c.adapt.Controller().Restore(*st.Relayout); err != nil {
			return err
		}
	}
	if st.AggCounts != nil && len(st.AggCounts) != c.live.Dom.Size() {
		return fmt.Errorf("remote: snapshot aggregate length %d ≠ domain %d", len(st.AggCounts), c.live.Dom.Size())
	}
	if err := c.rng.SetState(st.RNG); err != nil {
		return fmt.Errorf("remote: restore rng: %w", err)
	}
	if err := c.model.Restore(st.Model); err != nil {
		return err
	}
	roster := st.Roster
	if roster.W == 0 {
		// Legacy {status, reported} roster: the window is the config's and
		// the active count is recounted from the statuses.
		roster.W = c.cfg.W
		for _, s := range roster.Status {
			if s == 0 {
				roster.Active++
			}
		}
	}
	if err := c.users.Restore(roster); err != nil {
		return err
	}
	c.t = st.T
	c.phase = phase(st.Phase)
	c.present = copyBoolSet(st.Present)
	c.prevPresent = copyBoolSet(st.PrevPresent)
	c.epsRound = st.EpsRound
	c.assignments = nil
	if st.Assignments != nil {
		c.assignments = make(map[int]Assignment, len(st.Assignments))
		for id, a := range st.Assignments {
			c.assignments[id] = a
		}
	}
	c.oracle, c.agg = nil, nil
	if st.AggCounts != nil {
		c.oracle = ldp.MustOUE(c.live.Dom.Size(), c.epsRound)
		c.agg = ldp.NewAggregator(c.oracle)
		c.agg.AddCounts(st.AggCounts, st.AggN)
	}
	c.live.Updater.SetBootstrapped(st.Bootstrapped)
	c.live.Dev.Restore(st.Dev)
	c.sig.Restore(st.Sig)
	if st.BudgetWindow != nil {
		if err := c.budgetWin.Restore(*st.BudgetWindow); err != nil {
			return err
		}
	}
	c.ledger = st.Ledger.Clone()
	c.rounds = st.Rounds
	c.reports = st.Reports
	c.live.Synth().Restore(st.Synth)
	c.timings = st.Timings
	// Stage-latency metrics are per-round deltas off the cumulative timings;
	// re-baseline so the first post-restore round doesn't charge the donor's
	// whole pre-checkpoint runtime as one observation.
	c.lastTimings = st.Timings
	return nil
}

func copyBoolSet(m map[int]bool) map[int]bool {
	cp := make(map[int]bool, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

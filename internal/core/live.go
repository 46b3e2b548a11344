package core

import (
	"fmt"

	"retrasyn/internal/allocation"
	"retrasyn/internal/mobility"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/transition"
)

// Live is the layout-dependent state of a running RetraSyn loop: the
// discretization in effect, the transition domain over it, the mobility
// model, the adaptive strategy's deviation history, and the DMU and
// synthesis stages. The Engine and the HTTP curator each hold one, so
// layout migration (Migrate) and checkpoint layout adoption (Adopt) exist
// once.
type Live struct {
	Space   spatial.Discretizer
	Dom     *transition.Domain
	Model   *mobility.Model
	Dev     *allocation.DevTracker
	Updater *pipeline.DMUUpdater
	Stage   *pipeline.SynthesisStage
	// moveOnly drops entering/quitting states from the domain (the NoEQ
	// ablation).
	moveOnly bool
}

// NewLive builds the layout-dependent state over space around synth.
// moveOnly selects the NoEQ domain (synthesis then waits for users);
// disableDMU refreshes the whole model every round. The deviation history
// starts with the pre-collection all-zero vector, so the first collected
// estimate registers as drift (Dev ≈ ‖f̂‖₁) instead of deadlocking the
// adaptive strategy at Dev = 0.
func NewLive(space spatial.Discretizer, synth *synthesis.Synthesizer, kappa int, moveOnly, disableDMU bool) Live {
	dom := newDomain(space, moveOnly)
	model := mobility.NewModel(dom)
	l := Live{
		Space:    space,
		Dom:      dom,
		Model:    model,
		Dev:      allocation.NewDevTracker(kappa),
		Updater:  &pipeline.DMUUpdater{Model: model, DisableDMU: disableDMU},
		Stage:    &pipeline.SynthesisStage{Model: model, Synth: synth, WaitForUsers: moveOnly},
		moveOnly: moveOnly,
	}
	l.Dev.Push(make([]float64, dom.Size()))
	return l
}

// Synth returns the synthesizer, which survives migrations in place.
func (l *Live) Synth() *synthesis.Synthesizer { return l.Stage.Synth }

func newDomain(sp spatial.Discretizer, moveOnly bool) *transition.Domain {
	if moveOnly {
		return transition.NewMoveOnlyDomain(sp)
	}
	return transition.NewDomain(sp)
}

// Migrate moves the live state onto sp through the cell-overlap area
// weights between the current layout and sp: the model's mass is pushed
// through the overlap matrix (mass-conserving; see
// relayout.Migration.RemapFreqs), the deviation history is re-indexed the
// same way so the drift signal survives, the synthesizer's trajectories
// move to the max-overlap new cell, and the domain and stages are rebuilt
// over sp with the bootstrap flag kept. On error nothing changes.
// Migrating onto a layout-identical discretizer is an exact no-op for the
// release stream.
func (l *Live) Migrate(sp spatial.Discretizer) error {
	mig, err := relayout.NewMigration(l.Space, sp)
	if err != nil {
		return err
	}
	dom := newDomain(sp, l.moveOnly)
	freq, err := mig.RemapFreqs(l.Dom, dom, l.Model.Freqs())
	if err != nil {
		return err
	}
	devSt, err := mig.RemapDevState(l.Dom, dom, l.Dev.State())
	if err != nil {
		return err
	}
	model := mobility.NewModel(dom)
	if err := model.Restore(mobility.State{Freq: freq, Init: l.Model.Initialized()}); err != nil {
		return err
	}
	l.Dev.Restore(devSt)
	l.Stage.Synth.Relayout(sp, mig.MapCell)
	l.rewire(sp, dom, model, l.Updater.Bootstrapped())
	return nil
}

// Adopt puts the live state on the layout a checkpoint was taken at — the
// described layout (whose fingerprint fp must match, when recorded) after
// generation > 0 migrations, else boot — rebuilding the layout-dependent
// state over it without migrating anything: the snapshot's state vectors,
// already sized to that layout's domain, are loaded right after.
func (l *Live) Adopt(boot spatial.Discretizer, generation int, layout *relayout.Layout, fp string) error {
	sp := boot
	if generation > 0 {
		if layout == nil {
			return fmt.Errorf("snapshot at layout generation %d carries no layout", generation)
		}
		var err error
		if sp, err = relayout.FromLayout(*layout); err != nil {
			return fmt.Errorf("restore layout: %w", err)
		}
		if fp != "" && sp.Fingerprint() != fp {
			return fmt.Errorf("restored layout fingerprint %s ≠ snapshot %s — corrupt checkpoint", sp.Fingerprint(), fp)
		}
	}
	if sp != l.Space {
		dom := newDomain(sp, l.moveOnly)
		l.Stage.Synth.Relayout(sp, nil)
		l.rewire(sp, dom, mobility.NewModel(dom), false)
	}
	return nil
}

func (l *Live) rewire(sp spatial.Discretizer, dom *transition.Domain, model *mobility.Model, bootstrapped bool) {
	l.Space, l.Dom, l.Model = sp, dom, model
	l.Updater = &pipeline.DMUUpdater{Model: model, DisableDMU: l.Updater.DisableDMU}
	l.Updater.SetBootstrapped(bootstrapped)
	l.Stage = &pipeline.SynthesisStage{Model: model, Synth: l.Stage.Synth, WaitForUsers: l.Stage.WaitForUsers}
}

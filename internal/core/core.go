// Package core assembles RetraSyn (paper Algorithm 1) on top of the staged
// pipeline: per timestamp it decides the allocation, samples the reporting
// users, and drives the Collector → Estimator → ModelUpdater → Synthesizer
// stages of internal/pipeline. The package owns the glue the stages don't:
// allocation strategy state, user lifecycle tracking, window accounting and
// the privacy ledger. Both the budget-division and population-division
// variants are provided, along with the paper's ablations (AllUpdate: no
// DMU; NoEQ: no entering/quitting modelling).
package core

import (
	"fmt"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/spatial"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// OracleMode selects how the OUE collection round is simulated.
type OracleMode int

const (
	// PerUser runs the faithful per-user perturbation path — every sampled
	// user's report is individually randomized and aggregated. Use for
	// fidelity measurements (Table V user-side timing) and moderate scales.
	PerUser OracleMode = iota
	// Aggregate samples the aggregate count vector directly (statistically
	// identical to PerUser; see ldp.AggregateOracle). Use for paper-scale
	// populations. Only available for the OUE oracle.
	Aggregate
)

// OracleKind selects the frequency-oracle protocol users run.
type OracleKind int

const (
	// OracleOUE is Optimized Unary Encoding, the paper's choice (optimal
	// variance; |S|-bit reports).
	OracleOUE OracleKind = iota
	// OracleOLH is Optimized Local Hashing (matching variance, O(1)-size
	// reports, O(|S|) server work per report) — the frequency-oracle
	// ablation.
	OracleOLH
	// OracleGRR is Generalized Randomized Response (variance grows with
	// |S|; included to demonstrate why the paper avoids it).
	OracleGRR
)

// String implements fmt.Stringer.
func (k OracleKind) String() string {
	switch k {
	case OracleOUE:
		return "OUE"
	case OracleOLH:
		return "OLH"
	case OracleGRR:
		return "GRR"
	default:
		return fmt.Sprintf("OracleKind(%d)", int(k))
	}
}

// Options configures an Engine.
type Options struct {
	// Space is the spatial discretization the engine runs on (required) —
	// the uniform grid for the paper's setup, or any other
	// spatial.Discretizer backend (e.g. the density-adaptive quadtree).
	Space   spatial.Discretizer
	Epsilon float64
	// W is the w-event window size.
	W int
	// Division selects budget or population division.
	Division allocation.Division
	// Strategy decides per-timestamp allocation; defaults to the paper's
	// adaptive strategy for the configured division.
	Strategy allocation.Strategy
	// Lambda is the synthesis termination factor λ (Eq. 8); the paper sets
	// it to the dataset's average trajectory length.
	Lambda float64
	// Kappa is the tracker history length κ of Eq. 9–10 (default 5).
	Kappa int
	// DisableDMU refreshes the whole model every round (AllUpdate ablation).
	DisableDMU bool
	// DisableEQ drops entering/quitting modelling (NoEQ ablation): the
	// domain is movement-only, synthetic streams never terminate, and the
	// population is fixed at its initial size with uniform random starts.
	DisableEQ bool
	// OracleMode selects the collection simulation path.
	OracleMode OracleMode
	// Oracle selects the frequency-oracle protocol (default OUE, the
	// paper's choice).
	Oracle OracleKind
	// PostProcess optionally projects each round's estimates toward the
	// probability simplex before they feed the DMU and the model — a
	// privacy-free extension (Theorem 2) evaluated by the post-processing
	// ablation bench. Default none (the paper's behaviour).
	PostProcess ldp.PostProcess
	// SynthesisWorkers > 1 parallelizes the new-point-generation phase of
	// synthesis across that many goroutines (the paper §VII's future-work
	// acceleration). Default 1 (sequential, matching the paper).
	SynthesisWorkers int
	// AggregationWorkers shards the curator-side report-aggregation fold of
	// the per-user paths across that many goroutines; the fold is exactly
	// order-independent, so the estimates are unchanged. Default
	// runtime.NumCPU(); 1 forces the sequential fold.
	AggregationWorkers int
	// Seed drives all engine randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Metrics, when non-nil, receives pipeline stage-latency histograms,
	// round/report counters and the privacy-budget meter series. Metrics are
	// run-scoped — they never enter EngineState — and recording never touches
	// the engine RNG, so instrumented runs stay bit-identical. Nil (the
	// default) disables instrumentation at zero cost.
	Metrics *obs.Registry
	// MetricsShard labels this engine's series when several shards share one
	// registry (the Coordinator sets it; default 0).
	MetricsShard int
}

func (o *Options) defaults() error {
	if o.Space == nil {
		return fmt.Errorf("core: Space (the spatial discretization) is required")
	}
	if !(o.Epsilon > 0) {
		return fmt.Errorf("core: Epsilon must be > 0, got %v", o.Epsilon)
	}
	if o.W < 1 {
		return fmt.Errorf("core: W must be ≥ 1, got %d", o.W)
	}
	if o.Kappa == 0 {
		o.Kappa = 5
	}
	if o.Strategy == nil {
		o.Strategy = allocation.NewAdaptive(o.Division)
	}
	if !o.DisableEQ && !(o.Lambda > 0) {
		return fmt.Errorf("core: Lambda must be > 0, got %v", o.Lambda)
	}
	if o.OracleMode == Aggregate && o.Oracle != OracleOUE {
		return fmt.Errorf("core: the aggregate simulation path supports only the OUE oracle, not %v", o.Oracle)
	}
	if o.AggregationWorkers == 0 {
		o.AggregationWorkers = ldp.DefaultWorkers()
	}
	return nil
}

// StepResult reports what one processed timestamp did.
type StepResult = pipeline.StepResult

// ComponentTimings accumulates per-component wall time, matching the
// paper's Table V decomposition.
type ComponentTimings = pipeline.Timings

// RunStats aggregates an engine run.
type RunStats = pipeline.RunStats

// Engine is the streaming curator: the allocation / user-tracking glue of
// Algorithm 1 wrapped around a staged internal/pipeline.Pipeline. Feed it
// one timestamp at a time with ProcessTimestamp, or drive a whole recorded
// stream with Run. Not safe for concurrent use; run one Engine per shard
// under a pipeline.Coordinator for parallel streams.
type Engine struct {
	opts Options
	// live is the layout-dependent state; its space starts as opts.Space
	// and advances on Relayout. generation counts the layout migrations
	// applied so far (0 = the boot layout).
	live       Live
	generation int
	bootFP     ConfigFingerprint
	rng        *ldp.Source
	pipe       pipeline.Pipeline

	budgetWin *allocation.BudgetWindow
	sig       *allocation.SigTracker
	users     *UserTracker
	ledger    *allocation.Ledger

	lastT int // last processed timestamp; -1 before the first
	stats RunStats

	// metrics/meter are the run-scoped instrumentation handles; both are nil
	// (no-op) unless Options.Metrics was set. Never checkpointed.
	metrics *pipeline.Metrics
	meter   *allocation.Meter

	// scratch buffer reused across timestamps
	sampleBuf []trajectory.Event
}

// New creates an engine. The ledger capacity is sized lazily on first use
// when ledgerT is 0.
func New(opts Options) (*Engine, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	rng := ldp.NewSource(opts.Seed, opts.Seed^0x9e3779b97f4a7c15)
	synth, err := synthesis.New(opts.Space, synthesis.Options{
		Lambda:             opts.Lambda,
		DisableTermination: opts.DisableEQ,
		Workers:            opts.SynthesisWorkers,
		Seed:               opts.Seed ^ 0x5851f42d4c957f2d,
	}, rng)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:  opts,
		live:  NewLive(opts.Space, synth, opts.Kappa, opts.DisableEQ, opts.DisableDMU),
		rng:   rng,
		sig:   allocation.NewSigTracker(opts.Kappa),
		lastT: -1,
	}
	e.bootFP = e.configFingerprint()
	e.metrics = pipeline.NewMetrics(opts.Metrics, opts.MetricsShard)
	e.meter = allocation.NewMeter(opts.Metrics, opts.W)
	e.rewire()
	if opts.Division == allocation.Budget {
		e.budgetWin = allocation.NewBudgetWindow(opts.W)
	} else {
		e.users = NewUserTracker(opts.W)
	}
	return e, nil
}

// newCollector picks the collection stage for the configured oracle.
func newCollector(opts Options, dom *transition.Domain, rng pipeline.Rand) pipeline.Collector {
	switch {
	case opts.Oracle == OracleOLH:
		return &pipeline.OLHCollector{Dom: dom, Rng: rng, Workers: opts.AggregationWorkers}
	case opts.Oracle == OracleGRR:
		return &pipeline.GRRCollector{Dom: dom, Rng: rng}
	case opts.OracleMode == Aggregate:
		return &pipeline.OUEAggregateCollector{Dom: dom, Rng: rng}
	default:
		return &pipeline.OUEPerUserCollector{Dom: dom, Rng: rng, Workers: opts.AggregationWorkers}
	}
}

// Domain exposes the engine's transition domain (for tests and tooling).
func (e *Engine) Domain() *transition.Domain { return e.live.Dom }

// Space returns the spatial discretization currently in effect (the boot
// layout until the first Relayout).
func (e *Engine) Space() spatial.Discretizer { return e.live.Space }

// Generation returns how many layout migrations the engine has applied.
func (e *Engine) Generation() int { return e.generation }

// ReleasedCells appends the cells of the live synthetic streams at the
// current timestamp to buf and returns it — the released stream the
// adaptation loop sketches density from.
func (e *Engine) ReleasedCells(buf []spatial.Cell) []spatial.Cell {
	return e.live.Synth().ActiveCells(buf)
}

// Relayout migrates the live engine onto a new spatial discretization
// between two timestamps (the engine must be quiescent, exactly as for
// Snapshot). Both the current and the new discretizer must expose their
// cell geometry. The layout-dependent state — mobility model, deviation
// history, synthesizer streams, domain and stages — is resampled through
// the cell-overlap area weights (see Live.Migrate), and the collector is
// rebuilt over the new domain. The RNG position, allocation window
// accounting, user lifecycle and privacy ledger are layout-free and carry
// over untouched. Migrating onto a layout-identical discretizer is an exact
// no-op for the release stream (pinned by the golden relayout tests).
func (e *Engine) Relayout(sp spatial.Discretizer) error {
	if sp == nil {
		return fmt.Errorf("core: Relayout with a nil discretizer")
	}
	if err := e.live.Migrate(sp); err != nil {
		return fmt.Errorf("core: relayout: %w", err)
	}
	e.rewire()
	e.generation++
	e.stats.Relayouts++
	return nil
}

// rewire points the pipeline at the live layout-dependent state: the
// collector over the current domain and the live DMU and synthesis stages.
// Used at construction, after Relayout and after checkpoint restore.
func (e *Engine) rewire() {
	e.pipe = pipeline.Pipeline{
		Collector:   newCollector(e.opts, e.live.Dom, e.rng),
		Estimator:   &pipeline.DebiasEstimator{Post: e.opts.PostProcess},
		Updater:     e.live.Updater,
		Synthesizer: e.live.Stage,
	}
}

// Model exposes the global mobility model.
func (e *Engine) Model() *mobility.Model { return e.live.Model }

// Ledger returns the privacy ledger recorded so far (nil until Run or
// EnableLedger).
func (e *Engine) Ledger() *allocation.Ledger { return e.ledger }

// EnableLedger starts recording collection rounds for a timeline of length T.
func (e *Engine) EnableLedger(T int) { e.ledger = allocation.NewLedger(T) }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() RunStats { return e.stats }

// Run processes a whole recorded stream and returns the released synthetic
// database.
func (e *Engine) Run(stream *trajectory.Stream, name string) (*trajectory.Dataset, RunStats) {
	if e.ledger == nil {
		e.EnableLedger(stream.T)
	}
	for t := 0; t < stream.T; t++ {
		// The error path is unreachable: t increases strictly from 0.
		e.ProcessTimestamp(t, stream.At(t), stream.Active[t])
	}
	return e.Synthetic(name, stream.T), e.stats
}

// Synthetic returns the current released synthetic database.
func (e *Engine) Synthetic(name string, T int) *trajectory.Dataset {
	return e.live.Synth().Dataset(name, T)
}

// ProcessTimestamp ingests the events of timestamp t (one transition state
// per present user) and the publicly known active-user count, drives the
// collection/DMU/synthesis pipeline, and returns what happened. Timestamps
// must be strictly increasing; an out-of-order timestamp returns an error
// and leaves the engine untouched.
func (e *Engine) ProcessTimestamp(t int, events []trajectory.Event, activeCount int) (StepResult, error) {
	if t <= e.lastT {
		return StepResult{}, fmt.Errorf("core: ProcessTimestamp(%d) after timestamp %d — timestamps must be strictly increasing", t, e.lastT)
	}
	e.lastT = t
	e.stats.Timestamps++

	// Alg. 1 lines 7–9: register arrivals, recycle the t−w reporters.
	if e.users != nil {
		e.users.BeginTimestamp(t)
		for _, ev := range events {
			e.users.Register(ev.User)
		}
	}

	pool := e.eligible(events)
	decision := e.decide(t, len(pool))

	ctx := &pipeline.StepContext{
		T:           t,
		ActiveCount: activeCount,
		Decision:    decision,
		Timings:     &e.stats.Timings,
	}
	ctx.Result.T = t
	if decision.Report && len(pool) > 0 {
		reporters := pool
		if e.opts.Division == allocation.Population {
			n := int(decision.Portion*float64(len(pool)) + 0.5)
			if n < 1 {
				// The strategy decided to collect; tiny pools still
				// contribute one report so small deployments make progress
				// (the per-user window invariant is enforced regardless).
				n = 1
			}
			if n > len(pool) {
				n = len(pool)
			}
			reporters = e.sampleEvents(pool, n)
			ctx.Epsilon = e.opts.Epsilon
		} else {
			ctx.Epsilon = decision.Epsilon
		}
		ctx.Reporters = reporters
		ctx.Result.Reported = true
		ctx.Result.NumReporters = len(reporters)
		ctx.Result.Epsilon = ctx.Epsilon
		if e.ledger != nil {
			ids := make([]int, len(reporters))
			for i, ev := range reporters {
				ids[i] = ev.User
			}
			ctx.LedgerIDs = ids
		}
	}

	// Collector → Estimator → ModelUpdater → Synthesizer. Timings accumulate
	// cumulatively inside the stages, so the per-step increment is the
	// before/after delta.
	before := e.stats.Timings
	e.pipe.Step(ctx)
	e.metrics.ObserveStep(ctx, pipeline.Sub(e.stats.Timings, before))
	{
		spent := 0.0
		if ctx.Result.Reported {
			spent = ctx.Epsilon
		}
		e.meter.Observe(spent, ctx.Result.NumReporters, len(pool))
	}

	// Post-step glue: round accounting, user lifecycle, window bookkeeping
	// and the Eq. 9–10 trackers.
	if ctx.Result.Reported {
		e.stats.Rounds++
		e.stats.TotalReports += ctx.Result.NumReporters
		if e.users != nil {
			for _, ev := range ctx.Reporters {
				e.users.MarkReported(ev.User, t)
			}
		}
		if e.ledger != nil {
			e.ledger.RecordRound(t, ctx.Epsilon, ctx.LedgerIDs)
		}
	}

	// Alg. 1 line 8 (after potential final q_j report): retire quitters.
	if e.users != nil {
		for _, ev := range events {
			if ev.State.Kind == transition.Quit {
				e.users.MarkQuitted(ev.User)
			}
		}
	}

	// Window accounting for budget division records actual expenditure.
	if e.budgetWin != nil {
		spent := 0.0
		if ctx.Result.Reported {
			spent = ctx.Epsilon
		}
		e.budgetWin.Record(spent)
	}

	e.sig.Push(ctx.SigRatio)
	// Eq. 9 tracks the frequencies *collected* at recent timestamps: the
	// deviation history advances only on reporting rounds. (Pushing the
	// frozen model on silent timestamps would decay Dev to zero and
	// permanently silence the adaptive strategy after a starved round.)
	if ctx.Result.Reported {
		e.live.Dev.Push(ctx.Estimates)
		ctx.Result.Estimates, ctx.Result.SigRatio = ctx.Estimates, ctx.SigRatio
	}
	return ctx.Result, nil
}

// eligible filters the timestamp's events down to sampleable ones: states
// inside the domain (NoEQ drops enter/quit events) and — for population
// division — users currently active.
func (e *Engine) eligible(events []trajectory.Event) []trajectory.Event {
	e.sampleBuf = e.sampleBuf[:0]
	for _, ev := range events {
		if _, ok := e.live.Dom.Index(ev.State); !ok {
			continue
		}
		if e.users != nil && !e.users.IsActive(ev.User) {
			continue
		}
		e.sampleBuf = append(e.sampleBuf, ev)
	}
	return e.sampleBuf
}

// decide consults the strategy, bootstrapping the very first collection
// round at 1/w resources when the adaptive strategy would stay silent
// (Alg. 1 lines 1–5).
func (e *Engine) decide(t, poolSize int) allocation.Decision {
	ctx := allocation.Context{
		T:            t,
		W:            e.opts.W,
		Epsilon:      e.opts.Epsilon,
		Dev:          e.live.Dev.Dev(),
		SigRatioMean: e.sig.Mean(),
	}
	if e.budgetWin != nil {
		ctx.WindowUsed = e.budgetWin.Used()
	}
	d := e.opts.Strategy.Decide(ctx)
	if !e.live.Updater.Bootstrapped() && poolSize > 0 && !d.Report {
		if e.opts.Division == allocation.Budget {
			return allocation.Decision{Report: true, Epsilon: e.opts.Epsilon / float64(e.opts.W)}
		}
		return allocation.Decision{Report: true, Portion: 1 / float64(e.opts.W)}
	}
	return d
}

// sampleEvents draws n events without replacement via partial
// Fisher-Yates. The pool slice is permuted in place (it is the engine's
// scratch buffer).
func (e *Engine) sampleEvents(pool []trajectory.Event, n int) []trajectory.Event {
	for i := 0; i < n; i++ {
		j := i + e.rng.IntN(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n]
}

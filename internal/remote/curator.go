// Package remote is the distributed deployment composition of the library
// (paper §VII): an HTTP curator that runs the RetraSyn collection protocol
// against real clients over the network, and the matching device-side
// client. Perturbation happens strictly on the client; the curator only
// ever sees OUE reports, presence metadata and the public active count —
// the same trust model the paper assumes, now with the transport in place.
//
// Per-timestamp protocol, driven by a coordinator (e.g. a cron tick):
//
//  1. clients POST /v1/presence        — "I am present at timestamp t"
//  2. coordinator POST /v1/plan        — curator recycles, samples, fixes ε_t
//  3. clients GET /v1/assignment       — "am I sampled, at what budget?"
//  4. sampled clients POST /v1/report  — locally perturbed OUE bits
//  5. coordinator POST /v1/finalize    — aggregate, DMU, synthesis step
//  6. anyone GET /v1/synthetic         — the current private release
//
// The curator can also re-discretize itself while serving: it sketches the
// density of its own released stream (privacy-free post-processing) and —
// periodically via CuratorConfig.RediscretizeEvery, or on demand via
// POST /v1/relayout — grows a fresh quadtree from the sketch and migrates
// its live state onto it between rounds.
package remote

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"retrasyn/internal/adapt"
	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// CuratorConfig configures a Curator.
type CuratorConfig struct {
	// Space is the spatial discretization the curator runs on (required):
	// the uniform grid, the density-adaptive quadtree, or any other
	// spatial.Discretizer backend.
	Space   spatial.Discretizer
	Epsilon float64
	W       int
	// Division selects budget or population division. The zero value is
	// allocation.Budget.
	Division allocation.Division
	// Strategy defaults to the adaptive strategy for the division.
	Strategy allocation.Strategy
	// Lambda is the Eq. 8 termination factor.
	Lambda float64
	// Kappa is the tracker history length (default 5).
	Kappa int
	// Seed drives curator-side randomness (sampling, synthesis).
	Seed uint64
	// RediscretizeEvery > 0 enables online adaptive re-discretization: every
	// that many windows (W timestamps each), Finalize grows a fresh quadtree
	// from the released synthetic stream — a privacy-free post-processing of
	// the LDP outputs — and migrates the curator onto it when the layout
	// distance crosses RelayoutThreshold. 0 (default) never rebuilds
	// automatically; POST /v1/relayout still triggers a manual rebuild.
	RediscretizeEvery int
	// RelayoutThreshold is the minimum layout distance at which a rebuilt
	// layout replaces the current one (default relayout.DefaultThreshold).
	RelayoutThreshold float64
	// RelayoutLeaves caps the rebuilt quadtrees' leaf budget (default: the
	// boot discretizer's cell count). Requires Space to expose cell boxes
	// (spatial.Boxed) when rebuilds are possible.
	RelayoutLeaves int
	// MonitorWindow is the utility monitor's sliding release-sketch length
	// in timestamps (default W). The monitor is always on — like the
	// metrics registry it is run-scoped post-processing and never enters
	// checkpoints.
	MonitorWindow int
	// TriggerPolicy selects how relayout proposals turn into switches:
	// geometric (default), degradation-or, or degradation-and
	// (relayout.TriggerPolicy). Degradation policies consult the utility
	// monitor's alarms.
	TriggerPolicy relayout.TriggerPolicy
}

func (c *CuratorConfig) validate() error {
	if c.Space == nil {
		return fmt.Errorf("remote: Space (the spatial discretization) is required")
	}
	if !(c.Epsilon > 0) {
		return fmt.Errorf("remote: Epsilon must be > 0")
	}
	if c.W < 1 {
		return fmt.Errorf("remote: W must be ≥ 1")
	}
	if !(c.Lambda > 0) {
		return fmt.Errorf("remote: Lambda must be > 0")
	}
	if c.Kappa == 0 {
		c.Kappa = 5
	}
	if c.Strategy == nil {
		c.Strategy = allocation.NewAdaptive(c.Division)
	}
	if c.RediscretizeEvery < 0 {
		return fmt.Errorf("remote: RediscretizeEvery must be ≥ 0, got %d", c.RediscretizeEvery)
	}
	if c.MonitorWindow < 0 {
		return fmt.Errorf("remote: MonitorWindow must be ≥ 0, got %d", c.MonitorWindow)
	}
	if c.MonitorWindow == 0 {
		c.MonitorWindow = c.W
	}
	if err := c.TriggerPolicy.Validate(); err != nil {
		return err
	}
	return nil
}

// phase tracks the per-timestamp protocol state machine.
type phase int

const (
	phaseIdle    phase = iota // accepting presence for the next timestamp
	phasePlanned              // assignments fixed, accepting reports
)

// Assignment is the curator's answer to a sampled (or skipped) client.
type Assignment struct {
	Report  bool    `json:"report"`
	Epsilon float64 `json:"epsilon"`
}

// Curator is the server-side protocol engine. All methods are safe for
// concurrent use (one mutex; handler work is short).
type Curator struct {
	cfg    CuratorConfig
	bootFP CuratorFingerprint

	mu sync.Mutex
	// live is the layout-dependent state (as in the engine); model is its
	// current live.Model, refreshed on every layout change; generation
	// counts the layout migrations applied.
	live           core.Live
	model          *mobility.Model
	generation     int
	adapt          *adapt.Loop // release sketch, monitor and relayout
	t              int
	phase          phase
	present        map[int]bool // users who announced presence for t
	prevPresent    map[int]bool // presence at t−1, for quit inference
	assignments    map[int]Assignment
	epsRound       float64
	agg            *ldp.Aggregator
	oracle         *ldp.OUE
	users          *core.UserTracker
	sig            *allocation.SigTracker
	budgetWin      *allocation.BudgetWindow
	ledger         *allocation.Ledger
	rng            *ldp.Source
	rounds         int
	reports        int
	presenceEvents int64

	// The estimation / model-update / synthesis stages are shared with the
	// in-process engine (internal/pipeline); only collection differs — here
	// the reports arrive over the network.
	estimator *pipeline.DebiasEstimator
	timings   pipeline.Timings

	// Observability (always on, run-scoped — never checkpointed). reg is the
	// registry NewHandler serves at GET /metrics; lastTimings is the Timings
	// snapshot at the previous Finalize, so each round's stage-latency delta
	// (including report folds charged during ingestion) lands in histograms.
	reg          *obs.Registry
	metrics      curatorMetrics
	cellMassBuf  []float64      // CellMasses scratch, resized on relayout
	cellBuf      []spatial.Cell // released-cell scratch
	logger       *slog.Logger
	tracer       *slog.Logger
	lastTimings  pipeline.Timings
	roundPool    int // eligible users at the last Plan
	roundSampled int // assignments issued at the last Plan
	roundReports int // reports ingested since the last Plan
}

// NewCurator constructs the server-side engine.
func NewCurator(cfg CuratorConfig) (*Curator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := ldp.NewSource(cfg.Seed, cfg.Seed^0x6a09e667f3bcc908)
	synth, err := synthesis.New(cfg.Space, synthesis.Options{Lambda: cfg.Lambda}, rng)
	if err != nil {
		return nil, err
	}
	live := core.NewLive(cfg.Space, synth, cfg.Kappa, false, false)
	c := &Curator{
		cfg:         cfg,
		live:        live,
		model:       live.Model,
		present:     make(map[int]bool),
		prevPresent: make(map[int]bool),
		// The curator gates reporters in both divisions: a user who reported
		// rests for w timestamps whatever the division. Population division
		// needs this (it is Alg. 1's recycling). Budget division does not —
		// the budget window already bounds every user's Σ ε_t per window,
		// and the in-process engine lets every eligible user report at every
		// collected timestamp — so a budget-division curator collects far
		// fewer reports than the engine on the same stream (about 8.5× fewer
		// at SanJoaquin ×0.3). Privacy only gets more conservative; dropping
		// the gate would multiply device reports and is left to a change of
		// its own.
		users:     core.NewUserTracker(cfg.W),
		sig:       allocation.NewSigTracker(cfg.Kappa),
		rng:       rng,
		t:         -1,
		estimator: &pipeline.DebiasEstimator{},
	}
	if cfg.Division == allocation.Budget {
		c.budgetWin = allocation.NewBudgetWindow(cfg.W)
	}
	c.reg = obs.NewRegistry()
	c.metrics = newCuratorMetrics(c.reg, cfg.W)
	c.metrics.domainSize.Set(float64(live.Dom.Size()))
	c.logger = discardLogger()
	c.bootFP = c.configFingerprint()
	// The adaptation loop always runs, like the registry: it only reads
	// public data (the released stream and the DP estimates), so it costs
	// no budget and cannot perturb the protocol. Its sketch feeds the
	// manual /v1/relayout endpoint even without the periodic cadence.
	c.adapt, err = adapt.New(adapt.Config{
		Space:         cfg.Space,
		W:             cfg.W,
		Every:         cfg.RediscretizeEvery,
		Threshold:     cfg.RelayoutThreshold,
		Leaves:        cfg.RelayoutLeaves,
		Trigger:       cfg.TriggerPolicy,
		MonitorWindow: cfg.MonitorWindow,
		Manual:        true,
		Metrics:       c.reg,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// EnableLedger records rounds for post-hoc privacy verification.
func (c *Curator) EnableLedger(T int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledger = allocation.NewLedger(T)
}

// Ledger returns the recorded ledger (nil unless enabled).
func (c *Curator) Ledger() *allocation.Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger
}

// Presence registers that user id is present at timestamp t (has a
// transition state to contribute). Presence for a past timestamp is
// rejected.
func (c *Curator) Presence(user, t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t <= c.t {
		return fmt.Errorf("remote: presence for closed timestamp %d (current %d)", t, c.t)
	}
	if !c.present[user] {
		c.present[user] = true
		c.presenceEvents++
		c.metrics.presenceEvents.Inc()
		c.metrics.presentUsers.Set(float64(len(c.present)))
	}
	return nil
}

// PresenceBatch registers a whole gateway shard's presence in one call.
// Registration is a set operation, so the batch needs no all-or-nothing
// staging and the call (like Presence) is safely retryable — re-announcing
// a user is a no-op and is not double-counted.
func (c *Curator) PresenceBatch(users []int, t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t <= c.t {
		return fmt.Errorf("remote: presence for closed timestamp %d (current %d)", t, c.t)
	}
	for _, user := range users {
		if !c.present[user] {
			c.present[user] = true
			c.presenceEvents++
			c.metrics.presenceEvents.Inc()
		}
	}
	c.metrics.presentUsers.Set(float64(len(c.present)))
	return nil
}

// PresenceEvents counts the accepted presence registrations since boot —
// the curator-side half of a replay harness's loss accounting.
func (c *Curator) PresenceEvents() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.presenceEvents
}

// Plan closes presence collection for timestamp t, recycles the window,
// decides the round and fixes the per-user assignments.
func (c *Curator) Plan(t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phaseIdle {
		return c.roundError("plan", t, fmt.Errorf("remote: Plan(%d) while a round is open", t))
	}
	if t <= c.t {
		return c.roundError("plan", t, fmt.Errorf("remote: Plan(%d) after timestamp %d", t, c.t))
	}
	c.t = t
	c.users.BeginTimestamp(t)
	for id := range c.present {
		c.users.Register(id)
	}

	ctx := allocation.Context{
		T: t, W: c.cfg.W, Epsilon: c.cfg.Epsilon,
		Dev: c.live.Dev.Dev(), SigRatioMean: c.sig.Mean(),
	}
	if c.budgetWin != nil {
		ctx.WindowUsed = c.budgetWin.Used()
	}
	decision := c.cfg.Strategy.Decide(ctx)
	pool := make([]int, 0, len(c.present))
	for id := range c.present {
		if c.users.IsActive(id) {
			pool = append(pool, id)
		}
	}
	if !c.live.Updater.Bootstrapped() && len(pool) > 0 && !decision.Report {
		if c.cfg.Division == allocation.Budget {
			decision = allocation.Decision{Report: true, Epsilon: c.cfg.Epsilon / float64(c.cfg.W)}
		} else {
			decision = allocation.Decision{Report: true, Portion: 1 / float64(c.cfg.W)}
		}
	}

	c.assignments = make(map[int]Assignment, len(pool))
	c.epsRound = 0
	if decision.Report && len(pool) > 0 {
		sampled := pool
		c.epsRound = decision.Epsilon
		if c.cfg.Division == allocation.Population {
			c.epsRound = c.cfg.Epsilon
			n := int(decision.Portion*float64(len(pool)) + 0.5)
			if n < 1 {
				n = 1
			}
			if n > len(pool) {
				n = len(pool)
			}
			// Deterministic partial Fisher-Yates over a sorted pool.
			slices.Sort(pool)
			for i := 0; i < n; i++ {
				j := i + c.rng.IntN(len(pool)-i)
				pool[i], pool[j] = pool[j], pool[i]
			}
			sampled = pool[:n]
		}
		for _, id := range sampled {
			c.assignments[id] = Assignment{Report: true, Epsilon: c.epsRound}
		}
		c.oracle = ldp.MustOUE(c.live.Dom.Size(), c.epsRound)
		c.agg = ldp.NewAggregator(c.oracle)
	} else {
		c.oracle, c.agg = nil, nil
	}
	c.phase = phasePlanned
	c.roundPool = len(pool)
	c.roundSampled = len(c.assignments)
	c.roundReports = 0
	c.metrics.openRound.Set(1)
	c.metrics.poolSize.Set(float64(c.roundPool))
	c.metrics.sampledUsers.Set(float64(c.roundSampled))
	c.metrics.pendingAsgn.Set(float64(len(c.assignments)))
	return nil
}

// AssignmentFor answers a client's poll after Plan.
func (c *Curator) AssignmentFor(user, t int) (Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phasePlanned || t != c.t {
		return Assignment{}, fmt.Errorf("remote: no open round for timestamp %d", t)
	}
	return c.assignments[user], nil
}

// AssignmentsFor answers a gateway's batched poll after Plan: one entry per
// requested user, index-aligned. Read-only, so safely retryable.
func (c *Curator) AssignmentsFor(users []int, t int) ([]Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phasePlanned || t != c.t {
		return nil, fmt.Errorf("remote: no open round for timestamp %d", t)
	}
	out := make([]Assignment, len(users))
	for i, u := range users {
		out[i] = c.assignments[u]
	}
	return out, nil
}

// Report ingests a sampled client's perturbed OUE bits (indices of ones).
func (c *Curator) Report(user, t int, ones []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reportLocked(user, t, ones)
}

func (c *Curator) reportLocked(user, t int, ones []int) error {
	if c.phase != phasePlanned || t != c.t {
		return fmt.Errorf("remote: report outside an open round")
	}
	a, ok := c.assignments[user]
	if !ok || !a.Report {
		return fmt.Errorf("remote: user %d was not sampled at timestamp %d", user, t)
	}
	if err := c.validateOnesLocked(ones); err != nil {
		return err
	}
	c.agg.Add(ones)
	c.metrics.reportsSparse.Inc()
	c.applyReportMetaLocked(user, t)
	return nil
}

// validateOnesLocked is the curator-boundary index check: every reported
// 1-bit must land inside the current domain. Without it a hostile (or
// stale-domain) client's report would panic ldp.Aggregator.Add inside the
// service; with it the report is rejected with a clean error and the round
// stays intact.
func (c *Curator) validateOnesLocked(ones []int) error {
	d := c.live.Dom.Size()
	for _, i := range ones {
		if i < 0 || i >= d {
			return fmt.Errorf("remote: report bit %d outside domain [0, %d)", i, d)
		}
	}
	return nil
}

// applyReportMetaLocked records the bookkeeping of one ingested report —
// everything except the aggregation fold itself. The ledger logs the user
// here; the round's ε is charged once, at Finalize.
func (c *Curator) applyReportMetaLocked(user, t int) {
	delete(c.assignments, user) // one report per assignment
	c.users.MarkReported(user, t)
	c.reports++
	c.roundReports++
	c.metrics.reports.Inc()
	c.metrics.pendingAsgn.Set(float64(len(c.assignments)))
	if c.ledger != nil {
		c.ledger.RecordRound(t, 0, []int{user})
	}
}

// BatchReport is one user's entry in a batched report upload.
type BatchReport struct {
	User int   `json:"user"`
	Ones []int `json:"ones"`
}

// ReportBatch ingests many users' reports in one call — the path for
// gateway aggregators that fan heavy traffic into the curator. The batch is
// validated before any report is applied (open round, every user sampled
// and unique within the batch, every bit in the domain), so a rejected
// batch leaves the round untouched; the upload is all-or-nothing.
func (c *Curator) ReportBatch(t int, batch []BatchReport) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phasePlanned || t != c.t {
		return fmt.Errorf("remote: batch outside an open round")
	}
	seen := make(map[int]struct{}, len(batch))
	for i, r := range batch {
		if _, dup := seen[r.User]; dup {
			return fmt.Errorf("remote: batch entry %d: duplicate report for user %d", i, r.User)
		}
		seen[r.User] = struct{}{}
		a, ok := c.assignments[r.User]
		if !ok || !a.Report {
			return fmt.Errorf("remote: batch entry %d: user %d was not sampled at timestamp %d", i, r.User, t)
		}
		if err := c.validateOnesLocked(r.Ones); err != nil {
			return fmt.Errorf("remote: batch entry %d: %w", i, err)
		}
	}
	start := time.Now()
	for _, r := range batch {
		c.agg.Add(r.Ones)
	}
	c.timings.ModelConstruction += time.Since(start)
	c.metrics.reportsSparse.Add(int64(len(batch)))
	for _, r := range batch {
		c.applyReportMetaLocked(r.User, t)
	}
	return nil
}

// PackedBatchReport is one user's entry in a bit-packed batched upload:
// Bits is the little-endian ⌈d/8⌉-byte dense report (base64 in JSON). At
// realistic budgets a packed entry is ~6× smaller on the wire than the
// sparse index list, and the curator folds the whole batch with the
// word-parallel popcount network instead of one index at a time.
type PackedBatchReport struct {
	User int    `json:"user"`
	Bits []byte `json:"bits"`
}

// PackReportBatch converts a sparse batch into the packed wire form for a
// domain of size d — the gateway-side helper. It rejects out-of-domain
// indices (the same validation the curator applies on receipt).
func PackReportBatch(batch []BatchReport, d int) ([]PackedBatchReport, error) {
	out := make([]PackedBatchReport, len(batch))
	for i, r := range batch {
		p, err := ldp.PackReport(r.Ones, d)
		if err != nil {
			return nil, fmt.Errorf("remote: batch entry %d (user %d): %w", i, r.User, err)
		}
		out[i] = PackedBatchReport{User: r.User, Bits: p.Bytes(d)}
	}
	return out, nil
}

// ReportPackedBatch ingests a bit-packed batched upload. Validation is
// all-or-nothing like ReportBatch — open round, unique sampled users, and
// every payload exactly ⌈d/8⌉ bytes with no bits set beyond the domain, so
// a malformed entry yields a clean error instead of corrupting or panicking
// the fold. Each wire payload decodes straight into its fold-buffer row
// (ldp.UnpackReportBytesInto on a PackedBatch.Grow row) — no intermediate
// PackedReport is materialized or copied — and counts are bit-identical to
// the sparse path. The decode runs *outside* the round lock: only the
// commit — sampling validation plus the word-parallel fold — holds it, so
// a slow or hostile payload can't stall concurrent presence and assignment
// traffic. A relayout racing the decode is caught by the commit's domain
// re-check and rejected cleanly.
func (c *Curator) ReportPackedBatch(t int, batch []PackedBatchReport) error {
	d := c.DomainSize()
	packed := ldp.NewPackedBatch(d, len(batch))
	users := make([]int, len(batch))
	for i, r := range batch {
		users[i] = r.User
		if err := ldp.UnpackReportBytesInto(r.Bits, d, packed.Grow()); err != nil {
			return fmt.Errorf("remote: batch entry %d (user %d): %w", i, r.User, err)
		}
	}
	return c.commitPackedBatch(t, d, users, packed)
}

// reportPackedWire is the binary-frame ingest path: bits rows alias the
// request body and decode straight into the fold buffer outside the round
// lock. The frame self-declares the domain it was encoded for, so a stale
// client mid-relayout is rejected before any row is touched.
func (c *Curator) reportPackedWire(t, d int, users []int, bits [][]byte) error {
	if cd := c.DomainSize(); d != cd {
		return fmt.Errorf("remote: packed frame encoded for domain %d, curator domain is %d", d, cd)
	}
	packed := ldp.NewPackedBatch(d, len(users))
	for i, u := range users {
		if err := ldp.UnpackReportBytesInto(bits[i], d, packed.Grow()); err != nil {
			return fmt.Errorf("remote: batch entry %d (user %d): %w", i, u, err)
		}
	}
	return c.commitPackedBatch(t, d, users, packed)
}

// commitPackedBatch applies a pre-decoded packed batch under the round
// lock: open-round and domain re-checks, all-or-nothing sampling
// validation, then the word-parallel popcount fold (charged to the
// model-construction stage, the same bucket the in-process pipeline
// charges aggregation to) and per-user bookkeeping.
func (c *Curator) commitPackedBatch(t, d int, users []int, packed *ldp.PackedBatch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phasePlanned || t != c.t {
		return fmt.Errorf("remote: batch outside an open round")
	}
	if cd := c.live.Dom.Size(); d != cd {
		// A relayout landed between decode and commit; the rows were packed
		// for the old bit layout and must not fold into the new one.
		return fmt.Errorf("remote: packed batch encoded for domain %d, curator domain is %d", d, cd)
	}
	seen := make(map[int]struct{}, len(users))
	for i, u := range users {
		if _, dup := seen[u]; dup {
			return fmt.Errorf("remote: batch entry %d: duplicate report for user %d", i, u)
		}
		seen[u] = struct{}{}
		a, ok := c.assignments[u]
		if !ok || !a.Report {
			return fmt.Errorf("remote: batch entry %d: user %d was not sampled at timestamp %d", i, u, t)
		}
	}
	start := time.Now()
	c.agg.AddPackedBatch(packed, ldp.DefaultWorkers())
	c.timings.ModelConstruction += time.Since(start)
	c.metrics.reportsPacked.Add(int64(len(users)))
	for _, u := range users {
		c.applyReportMetaLocked(u, t)
	}
	return nil
}

// Finalize closes timestamp t: aggregates whatever reports arrived, applies
// the DMU update, infers quits from absence, and advances the synthesizer
// toward activeCount (the public population size).
func (c *Curator) Finalize(t, activeCount int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phasePlanned || t != c.t {
		return c.roundError("finalize", t, fmt.Errorf("remote: Finalize(%d) without a matching Plan", t))
	}

	ctx := &pipeline.StepContext{
		T:           t,
		ActiveCount: activeCount,
		Epsilon:     c.epsRound,
		Timings:     &c.timings,
	}
	reported := c.agg != nil && c.agg.N() > 0
	if reported {
		ctx.Aggregate = c.agg
		ctx.ErrUpd = c.oracle.Variance(c.agg.N())
		c.estimator.Estimate(ctx)
		c.live.Updater.Update(ctx)
		c.live.Dev.Push(ctx.Estimates)
		c.rounds++
		c.metrics.rounds.Inc()
		c.metrics.reportCount.ObserveValue(int64(c.roundReports))
		c.metrics.sigRatio.Set(ctx.SigRatio)
		c.metrics.significant.Set(float64(ctx.Result.NumSignificant))
	}
	c.sig.Push(ctx.SigRatio)
	spent := 0.0
	if reported {
		spent = c.epsRound
	}
	if c.budgetWin != nil {
		c.budgetWin.Record(spent)
	}
	if reported && c.ledger != nil {
		c.ledger.RecordRound(t, spent, nil)
	}
	c.metrics.meter.Observe(spent, c.roundReports, c.roundPool)

	// Quit inference: users present at t−1 but silent at t have stopped
	// sharing.
	for id := range c.prevPresent {
		if !c.present[id] {
			c.users.MarkQuitted(id)
		}
	}
	c.prevPresent, c.present = c.present, make(map[int]bool)

	c.live.Stage.Step(ctx)
	c.phase = phaseIdle
	c.assignments = nil
	c.metrics.openRound.Set(0)
	c.metrics.pendingAsgn.Set(0)

	var cellEst []float64
	if reported {
		c.cellMassBuf = monitor.CellMasses(c.live.Dom, ctx.Estimates, c.cellMassBuf)
		cellEst = c.cellMassBuf
	}
	c.cellBuf = c.live.Synth().ActiveCells(c.cellBuf[:0])
	out, err := c.adapt.Step(adapt.Round{
		T:        t,
		Space:    c.live.Space,
		Cells:    c.cellBuf,
		CellEst:  cellEst,
		SigRatio: ctx.SigRatio,
		Errors:   c.metrics.roundErrors.Value() + c.metrics.relayoutErrors.Value(),
	}, c.migrateLocked)
	if err != nil {
		return c.relayoutError(t, fmt.Errorf("remote: periodic relayout at timestamp %d: %w", t, err))
	}

	// Per-round stage-latency deltas: timings accumulate cumulatively (the
	// report folds were already charged during ingestion), so the increment
	// since the previous Finalize is this round's cost.
	delta := pipeline.Sub(c.timings, c.lastTimings)
	c.lastTimings = c.timings
	c.metrics.stageModel.Observe(delta.ModelConstruction)
	c.metrics.stageDMU.Observe(delta.DMU)
	c.metrics.stageSynth.Observe(delta.Synthesis)
	c.traceRound(t, reported, c.roundReports, spent, ctx.SigRatio, ctx.Result.NumSignificant, delta, out)
	return nil
}

// Health snapshots the utility monitor plus run identity for GET /v1/health.
func (c *Curator) Health() HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return HealthReport{
		Health:     c.adapt.Monitor().Health(),
		T:          c.t,
		Rounds:     c.rounds,
		Generation: c.generation,
		Window:     c.adapt.Monitor().Window(),
		Trigger:    string(c.adapt.Controller().Trigger()),
	}
}

// HealthReport is the GET /v1/health payload: the monitor's verdict plus
// enough run identity to correlate it with traces and stats.
type HealthReport struct {
	monitor.Health
	// T is the last closed timestamp (-1 before the first round).
	T int `json:"t"`
	// Rounds counts reported rounds since boot.
	Rounds int `json:"rounds"`
	// Generation counts layout migrations applied since boot.
	Generation int `json:"generation"`
	// Window is the monitor's release-sketch length in timestamps.
	Window int `json:"monitor_window"`
	// Trigger is the relayout trigger policy in effect.
	Trigger string `json:"trigger"`
}

// RelayoutStatus reports the outcome of a relayout request and the current
// layout identity.
type RelayoutStatus struct {
	// Switched is true when the curator migrated onto a rebuilt layout.
	Switched bool `json:"switched"`
	// Distance is the layout distance of the most recent proposal (0 when
	// the sketch was empty or the rebuild reproduced the current layout).
	Distance float64 `json:"distance"`
	// Generation counts the migrations applied since boot.
	Generation int `json:"generation"`
	// Cells and DomainSize describe the layout now in effect.
	Cells       int    `json:"cells"`
	DomainSize  int    `json:"domain_size"`
	Fingerprint string `json:"fingerprint"`
	// TriggerFired is the trigger policy's verdict at the most recent
	// proposal (false when no proposal was evaluated — empty sketch or
	// unchanged fingerprint). It can differ from Switched only under force.
	TriggerFired bool `json:"trigger_fired"`
	// Alarmed reports whether the utility monitor was alarming when the
	// proposal was decided (always false under the geometric policy).
	Alarmed bool `json:"alarmed"`
}

func (c *Curator) statusLocked(switched bool, distance float64) RelayoutStatus {
	return RelayoutStatus{
		Switched:    switched,
		Distance:    distance,
		Generation:  c.generation,
		Cells:       c.live.Space.NumCells(),
		DomainSize:  c.live.Dom.Size(),
		Fingerprint: c.live.Space.Fingerprint(),
	}
}

// Relayout rebuilds the spatial layout from the released-stream density
// sketch and migrates the curator onto it. With force the layout switches
// whenever the rebuilt tree differs from the current layout at all;
// otherwise the configured distance threshold applies. Relayout is rejected
// while a collection round is open (between Plan and Finalize) — the open
// round's assignments and partial aggregate are indexed by the current
// domain.
func (c *Curator) Relayout(force bool) (RelayoutStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != phaseIdle {
		return c.statusLocked(false, 0), c.relayoutError(c.t, fmt.Errorf("remote: relayout while a round is open — finalize timestamp %d first", c.t))
	}
	prop, switched, err := c.adapt.Relayout(c.live.Space, force, c.migrateLocked)
	st := c.statusLocked(switched, prop.Distance)
	st.TriggerFired, st.Alarmed = prop.Switch, prop.Alarmed
	return st, c.relayoutError(c.t, err)
}

// migrateLocked moves the curator onto a new layout — the adaptation loop's
// migrate step. The live state migrates exactly as the in-process engine's
// does (core.Live.Migrate); around it the curator keeps only its protocol
// state.
func (c *Curator) migrateLocked(sp spatial.Discretizer) error {
	start := time.Now()
	if err := c.live.Migrate(sp); err != nil {
		return err
	}
	c.model = c.live.Model
	// The last closed round's aggregator is indexed by the old domain; drop
	// it so a post-migration snapshot doesn't embed (and a restore doesn't
	// rebuild) a stale-length aggregate.
	c.oracle, c.agg = nil, nil
	c.generation++
	c.metrics.generation.Set(float64(c.generation))
	c.metrics.domainSize.Set(float64(c.live.Dom.Size()))
	c.metrics.observeMigration(time.Since(start))
	return nil
}

// LayoutStatus returns the current layout identity without proposing a
// rebuild (served on /v1/stats).
func (c *Curator) LayoutStatus() RelayoutStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(false, c.adapt.Controller().LastDistance())
}

// Synthetic returns the current private release.
func (c *Curator) Synthetic(name string) *trajectory.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Synth().Dataset(name, c.t+1)
}

// Stats summarizes the curator's activity.
func (c *Curator) Stats() (rounds, reports int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds, c.reports
}

// Timings returns the accumulated per-component wall time of the pipeline
// stages (the Table V decomposition, minus the client-side perturbation the
// curator never sees).
func (c *Curator) Timings() pipeline.Timings {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timings
}

// Domain exposes the transition domain clients need for encoding. It
// changes on relayout: clients must re-fetch it after a migration (the
// assignment/report cycle rejects stale-domain bits anyway).
func (c *Curator) Domain() *transition.Domain {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Dom
}

// DomainSize returns the size of the current transition domain — the d a
// packed report must be encoded against. It takes the lock only briefly,
// so wire decoders can snapshot d without stalling an open round.
func (c *Curator) DomainSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Dom.Size()
}

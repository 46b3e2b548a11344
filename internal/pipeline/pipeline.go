// Package pipeline decomposes the RetraSyn per-timestamp loop (paper
// Algorithm 1) into explicit, composable stages:
//
//	Collector    — one frequency-oracle round over the sampled reporters
//	Estimator    — debiasing (and optional post-processing) of the aggregate
//	ModelUpdater — the DMU / AllUpdate refresh of the global mobility model
//	Synthesizer  — the real-time synthetic-database step
//
// A StepContext threads one timestamp's allocation decision, reporters,
// estimates, ledger entries and timings through the stages. The same stages
// back the in-process engine (internal/core), the networked curator
// (internal/remote) and the multi-shard Coordinator, so sharding, batching
// and alternative backends compose without touching the protocol logic.
//
// Single-shard sequential execution is bit-identical to the original
// monolithic engine: the stages consume the shared random source in exactly
// the order the monolith did (sampling → perturbation/aggregate draw →
// synthesis), which the core package's golden tests pin.
package pipeline

import (
	"time"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// Rand is the random source the stages draw from: the ldp primitives'
// interface plus the raw 64-bit stream OLH hash seeds need. *rand.Rand
// (math/rand/v2) satisfies it.
type Rand interface {
	ldp.Rand
	Uint64() uint64
}

// StepResult reports what one processed timestamp did.
type StepResult struct {
	T              int
	Reported       bool
	NumReporters   int
	Epsilon        float64 // per-user budget spent by reporters
	NumSignificant int     // |S*| of the DMU selection (domain size at init)
	Packed         bool    // collection round used the bit-packed representation
	// Estimates and SigRatio are a reported round's domain-indexed DP
	// estimates (shared — treat as read-only) and DMU significance ratio.
	Estimates []float64
	SigRatio  float64
}

// Timings accumulates per-component wall time, matching the paper's Table V
// decomposition.
type Timings struct {
	UserSide          time.Duration // client-side perturbation
	ModelConstruction time.Duration // aggregation and debiasing
	DMU               time.Duration // significant-transition selection + update
	Synthesis         time.Duration // generation and size adjustment
}

// Total sums the components.
func (c Timings) Total() time.Duration {
	return c.UserSide + c.ModelConstruction + c.DMU + c.Synthesis
}

// RunStats aggregates a pipeline run.
type RunStats struct {
	Timestamps   int
	Rounds       int // timestamps with a collection round
	TotalReports int // user reports collected
	Relayouts    int // layout migrations (online re-discretization)
	Timings      Timings
}

// merge folds another run's statistics in (used by the Coordinator).
func (s *RunStats) merge(o RunStats) {
	s.Rounds += o.Rounds
	s.TotalReports += o.TotalReports
	s.Timings.UserSide += o.Timings.UserSide
	s.Timings.ModelConstruction += o.Timings.ModelConstruction
	s.Timings.DMU += o.Timings.DMU
	s.Timings.Synthesis += o.Timings.Synthesis
}

// StepContext carries one timestamp through the stages. The driving engine
// fills the allocation section before Step; the stages fill the rest.
type StepContext struct {
	T           int
	ActiveCount int // publicly known active-user count (synthesis target)

	// Decision is the allocation strategy's raw verdict for this timestamp,
	// carried for observability and for stages that need the allocation
	// itself (portions, budgets). It is informational: whether the
	// collection stages run is decided solely by Reporters being non-empty
	// (Collecting()) — a Report decision over an empty pool stays silent.
	Decision allocation.Decision
	// Reporters are the sampled events whose transition states the
	// Collector perturbs and aggregates; empty on silent timestamps.
	Reporters []trajectory.Event
	// Epsilon is the per-reporter budget of this round (the whole ε under
	// population division, the strategy's ε_t under budget division).
	Epsilon float64
	// LedgerIDs are the reporting users whose expenditure the privacy
	// ledger records for this round.
	LedgerIDs []int

	// Aggregate is the raw frequency-oracle aggregate the Collector
	// produced.
	Aggregate Aggregate
	// ErrUpd is the oracle's per-state estimation variance at this round's
	// budget and population — the err_upd of the DMU comparison (Eq. 7).
	ErrUpd float64
	// Estimates is the debiased (and optionally post-processed) frequency
	// vector the Estimator produced.
	Estimates []float64
	// SigRatio is |S*|/|S| of the DMU selection, feeding Eq. 10's damping.
	SigRatio float64

	// Result accumulates what the step did.
	Result StepResult
	// Timings points at the run-level timing accumulator.
	Timings *Timings
}

// Collecting reports whether this step runs a collection round.
func (ctx *StepContext) Collecting() bool { return len(ctx.Reporters) > 0 }

// Aggregate is the curator-side view of one collection round: enough to
// debias frequencies, whatever the oracle protocol. ldp.Aggregator,
// ldp.OLHAggregator and ldp.GRRAggregator all satisfy it.
type Aggregate interface {
	// N is the number of reports aggregated.
	N() int
	// EstimateAll returns the debiased frequency estimates for the domain.
	EstimateAll() []float64
}

// Collector runs one frequency-oracle round over ctx.Reporters at budget
// ctx.Epsilon, leaving the raw aggregate and its variance in ctx.
type Collector interface {
	Collect(ctx *StepContext)
}

// Estimator turns the raw aggregate into the frequency-estimate vector the
// model update consumes.
type Estimator interface {
	Estimate(ctx *StepContext)
}

// ModelUpdater refreshes the global mobility model from ctx.Estimates.
type ModelUpdater interface {
	Update(ctx *StepContext)
}

// Synthesizer advances the released synthetic database to ctx.T.
type Synthesizer interface {
	Step(ctx *StepContext)
}

// Pipeline chains the four stages for one stream. It is not safe for
// concurrent use; the Coordinator runs one Pipeline-backed engine per shard.
type Pipeline struct {
	Collector   Collector
	Estimator   Estimator
	Updater     ModelUpdater
	Synthesizer Synthesizer
}

// Step processes one timestamp: the collection stages run only when the
// allocation decision sampled reporters; synthesis runs unconditionally.
func (p *Pipeline) Step(ctx *StepContext) {
	if ctx.Collecting() {
		p.Collector.Collect(ctx)
		p.Estimator.Estimate(ctx)
		p.Updater.Update(ctx)
	}
	p.Synthesizer.Step(ctx)
}

package remote

import (
	"io"
	"log/slog"
	"time"

	"retrasyn/internal/adapt"
	"retrasyn/internal/allocation"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
)

// curatorMetrics bundles the curator's registry handles. The registry is
// always on — it costs a few atomics per round — and run-scoped: nothing
// here enters snapshots, and a restored curator counts from zero.
type curatorMetrics struct {
	rounds         *obs.Counter
	reports        *obs.Counter
	reportsPacked  *obs.Counter
	reportsSparse  *obs.Counter
	presenceEvents *obs.Counter
	roundErrors    *obs.Counter
	relayoutErrors *obs.Counter

	openRound    *obs.Gauge
	presentUsers *obs.Gauge
	pendingAsgn  *obs.Gauge
	poolSize     *obs.Gauge
	sampledUsers *obs.Gauge
	domainSize   *obs.Gauge
	sigRatio     *obs.Gauge
	significant  *obs.Gauge
	generation   *obs.Gauge

	reportCount *obs.Histogram
	migration   *obs.Histogram

	stageModel *obs.Histogram
	stageDMU   *obs.Histogram
	stageSynth *obs.Histogram

	meter *allocation.Meter
}

func newCuratorMetrics(reg *obs.Registry, w int) curatorMetrics {
	rep := func(kind string) *obs.Counter {
		return reg.Counter("curator.reports_by_representation", obs.Label{Key: "representation", Value: kind})
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("pipeline.stage.latency_us",
			obs.Label{Key: "shard", Value: "0"}, obs.Label{Key: "stage", Value: name})
	}
	return curatorMetrics{
		rounds:         reg.Counter("curator.rounds"),
		reports:        reg.Counter("curator.reports"),
		reportsPacked:  rep("packed"),
		reportsSparse:  rep("sparse"),
		presenceEvents: reg.Counter("curator.presence_events"),
		roundErrors:    reg.Counter("curator.round_errors"),
		relayoutErrors: reg.Counter("curator.relayout_errors"),
		openRound:      reg.Gauge("curator.open_round"),
		presentUsers:   reg.Gauge("curator.present_users"),
		pendingAsgn:    reg.Gauge("curator.pending_assignments"),
		poolSize:       reg.Gauge("curator.round_pool"),
		sampledUsers:   reg.Gauge("curator.round_sampled"),
		domainSize:     reg.Gauge("curator.domain_size"),
		sigRatio:       reg.Gauge("curator.dmu.sig_ratio"),
		significant:    reg.Gauge("curator.dmu.significant"),
		generation:     reg.Gauge("relayout.generation"),
		reportCount:    reg.Histogram("curator.round.report_count"),
		migration:      reg.Histogram("relayout.migration_duration_us"),
		stageModel:     stage("model_construction"),
		stageDMU:       stage("dmu"),
		stageSynth:     stage("synthesis"),
		meter:          allocation.NewMeter(reg, w),
	}
}

// Metrics returns the curator's always-on metrics registry; NewHandler
// serves it at GET /metrics.
func (c *Curator) Metrics() *obs.Registry { return c.reg }

// SetLogger installs the error logger for round-processing and relayout
// failures. Default: a text logger discarded (silent), so servers must opt
// in. Safe to call before serving traffic.
func (c *Curator) SetLogger(l *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l != nil {
		c.logger = l
	}
}

// SetTracer installs the opt-in round tracer: one structured event per
// Finalize with stage latencies, report counts, budget stats and relayout
// state. cmd/curator -trace-rounds points this at a JSONL file.
func (c *Curator) SetTracer(l *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = l
}

// discardLogger is the default silent logger.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// roundError logs a round-processing failure with timestamp context and
// counts it; returns err unchanged so call sites stay one-liners.
func (c *Curator) roundError(op string, t int, err error) error {
	if err == nil {
		return nil
	}
	c.metrics.roundErrors.Inc()
	c.logger.Error("round processing failed", "op", op, "t", t, "err", err.Error())
	return err
}

// relayoutError logs a relayout failure with timestamp context and counts it.
func (c *Curator) relayoutError(t int, err error) error {
	if err == nil {
		return nil
	}
	c.metrics.relayoutErrors.Inc()
	c.logger.Error("relayout failed", "t", t, "err", err.Error())
	return err
}

// traceRound emits the per-round tracer event. delta is the Timings
// increment this round charged (report folds since the last Finalize plus
// the estimate/DMU/synthesis work of this one). adapted is the adaptation
// loop's outcome; divergence keys carry −1 on rounds where it was not
// computed (unreported round or empty release sketch). Called under c.mu.
func (c *Curator) traceRound(t int, reported bool, reports int, eps float64, sigRatio float64, significant int, delta pipeline.Timings, adapted adapt.Outcome) {
	if c.tracer == nil {
		return
	}
	mon := adapted.Monitor
	divL1, divJS := -1.0, -1.0
	if mon.Computed {
		divL1, divJS = mon.L1, mon.JS
	}
	alarms := mon.Alarms
	if alarms == nil {
		alarms = []string{}
	}
	c.tracer.Info("round",
		"t", t,
		"reported", reported,
		"reports", reports,
		"epsilon", eps,
		"pool", c.roundPool,
		"sampled", c.roundSampled,
		"sig_ratio", sigRatio,
		"significant", significant,
		"model_construction_us", delta.ModelConstruction.Microseconds(),
		"dmu_us", delta.DMU.Microseconds(),
		"synthesis_us", delta.Synthesis.Microseconds(),
		"domain_size", c.live.Dom.Size(),
		"generation", c.generation,
		"relayout_switched", adapted.Switched,
		"divergence", divJS,
		"divergence_l1", divL1,
		"alarms", alarms,
		"trigger_fired", adapted.Proposal.Switch,
	)
}

// observeMigration times one applied migration.
func (m *curatorMetrics) observeMigration(d time.Duration) { m.migration.Observe(d) }

package main

import (
	"fmt"
	"time"

	"retrasyn"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// frameworkOptions configures the in-process system. The monitor runs with
// window w, matching the curator's always-on monitor.
func frameworkOptions(k kind, g *retrasyn.Grid, s shape, seed uint64) retrasyn.Options {
	opts := retrasyn.Options{Grid: g, Epsilon: s.eps, Window: s.w, Lambda: s.lambda, MonitorWindow: s.w, Seed: seed}
	if k == kindRelayout {
		opts.RediscretizeEvery = s.rediscretizeEvery
		opts.RelayoutThreshold = s.relayoutThreshold
		opts.TriggerPolicy = s.trigger
	}
	return opts
}

// frameworkSystem is the in-process system: retrasyn.Framework driven
// synchronously, one ProcessTimestamp call per round.
type frameworkSystem struct {
	kind kind
	in   *input
	o    *ops
	f    *retrasyn.Framework
	dom  *transition.Domain // boot layout, to expand compact rounds
	buf  []retrasyn.Event
	fed  int64
}

func bootFramework(k kind, in *input, cfg config, o *ops, replay int) (*frameworkSystem, error) {
	g, err := retrasyn.NewGrid(cfg.shape.k, in.bounds)
	if err != nil {
		return nil, err
	}
	f, err := retrasyn.New(frameworkOptions(k, g, cfg.shape, systemSeed(cfg.seed, replay)))
	if o.call("engine", err) != nil {
		return nil, err
	}
	return &frameworkSystem{kind: k, in: in, o: o, f: f, dom: transition.NewDomain(g)}, nil
}

// replay feeds every timestamp. A round is the benchmark's calls into the
// framework for that timestamp. After a migration the devices re-encode the
// rest of the stream against the new layout; that is load-generator work
// and falls between rounds.
func (s *frameworkSystem) replay(p *pass) error {
	stream := s.in.boot
	for t := 0; t < s.in.T; t++ {
		var events []retrasyn.Event
		var active int
		if s.kind == kindRelayout {
			events, active = stream.At(t), stream.Active[t]
		} else {
			s.buf = s.in.rounds[t].events(s.dom, s.buf)
			events, active = s.buf, s.in.rounds[t].active
		}
		gen := s.f.LayoutGeneration()
		start := time.Now()
		var before, after retrasyn.RunStats
		if p.tr != nil {
			before = s.stats()
		}
		ptStart := time.Now()
		err := s.o.call("engine", s.f.ProcessTimestamp(events, active))
		ptEnd := time.Now()
		if err != nil {
			return fmt.Errorf("t=%d: %w", t, err)
		}
		migrated := s.kind == kindRelayout && s.f.LayoutGeneration() != gen
		if p.tr != nil {
			after = s.stats()
		}
		end := time.Now()
		p.round(end.Sub(start), len(events))
		s.fed += int64(len(events))
		if p.tr != nil {
			if err := traceEngineRound(p, t, start, ptStart, ptEnd, end, before, after, migrated); err != nil {
				return err
			}
		}
		if migrated {
			stream = trajectory.NewStream(trajectory.Discretize(s.in.raw, s.f.Space(), trajectory.DiscretizeOptions{}))
		}
	}
	return nil
}

func (s *frameworkSystem) stats() retrasyn.RunStats {
	s.o.call("engine", nil)
	return s.f.Stats()
}

// traceEngineRound records an in-process round. ProcessTimestamp splits
// into the pipeline stages (Stats().Timings deltas) and engine.adapt_ms, the
// rest of the call: monitor, release sketch, relayout proposals and
// migrations.
func traceEngineRound(p *pass, t int, start, ptStart, ptEnd, end time.Time, before, after retrasyn.RunStats, migrated bool) error {
	tr := p.tr
	roundID := tr.id()
	tr.add(roundID, 0, "round", t, start, end)
	tr.add(tr.id(), roundID, "engine.process_timestamp", t, ptStart, ptEnd)
	d := after.Timings
	d.UserSide -= before.Timings.UserSide
	d.ModelConstruction -= before.Timings.ModelConstruction
	d.DMU -= before.Timings.DMU
	d.Synthesis -= before.Timings.Synthesis
	call := ptEnd.Sub(ptStart)
	adapt := call - d.Total()
	if adapt < -unaccountedSlack {
		return fmt.Errorf("t=%d: stage timings %v exceed ProcessTimestamp's wall time %v", t, d.Total(), call)
	}
	path := map[string]time.Duration{
		"engine.user_side_ms": d.UserSide,
		"engine.model_ms":     d.ModelConstruction,
		"engine.dmu_ms":       d.DMU,
		"engine.synthesis_ms": d.Synthesis,
		"engine.adapt_ms":     adapt,
	}
	if migrated {
		p.migrationRounds = append(p.migrationRounds, ms(call))
	}
	return p.breakdown(t, end.Sub(start), path, map[string]time.Duration{"engine.round_ms": call})
}

// outcome checks the in-process ledger (every timestamp processed, every
// input event fed) and reads the release back.
func (s *frameworkSystem) outcome() (*outcome, error) {
	st := s.stats()
	if st.Timestamps != s.in.T || s.f.Timestamp() != s.in.T || s.fed != s.in.events {
		return nil, fmt.Errorf("ledger does not balance: fed %d events over %d timestamps; framework processed %d timestamps (next %d), input has %d events",
			s.fed, s.in.T, st.Timestamps, s.f.Timestamp(), s.in.events)
	}
	h := s.f.Health()
	s.o.call("adapt", nil)
	var alarms int64
	for _, sig := range h.Signals {
		alarms += sig.Alarms
	}
	rel := s.f.Synthetic("release")
	s.o.call("engine", nil)
	return &outcome{release: rel, space: s.f.Space(), digest: digest(rel),
		migrations: s.f.LayoutGeneration(), alarms: alarms, reports: int64(st.TotalReports)}, nil
}

func (s *frameworkSystem) close() error { return nil }

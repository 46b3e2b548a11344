package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"retrasyn"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/remote"
)

// curatorConfig is the sj-http curator: population division, the monitor
// always on at its default window w.
func curatorConfig(space retrasyn.Discretizer, s shape, seed uint64) remote.CuratorConfig {
	return remote.CuratorConfig{Space: space, Epsilon: s.eps, W: s.w, Lambda: s.lambda, Seed: seed}
}

// httpSystem is the curator behind a loopback listener, one gateway per
// gateway goroutine and one coordinator, all in this process.
type httpSystem struct {
	in     *input
	o      *ops
	cur    *remote.Curator
	srv    *http.Server
	served chan error
	conns  sync.WaitGroup // server connections still open
	proto  *httpProtocol
	devs   []*device
	sent   ledger
}

func bootHTTP(in *input, cfg config, o *ops, tr *tracer, replay int) (*httpSystem, error) {
	g, err := retrasyn.NewGrid(cfg.shape.k, in.bounds)
	if err != nil {
		return nil, err
	}
	cur, err := remote.NewCurator(curatorConfig(g, cfg.shape, systemSeed(cfg.seed, replay)))
	if o.call("curator", err) != nil {
		return nil, err
	}
	h := remote.NewHandler(cur)
	if tr != nil {
		h = serverSpans(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpSystem{in: in, o: o, cur: cur, served: make(chan error, 1)}
	s.srv = &http.Server{Handler: h, ConnState: s.track}
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.proto = newHTTPProtocol(base, in.gateways, o, tr != nil)
	s.devs = newDevices(in.gateways, deviceSeed(cfg.seed, replay))
	if err := s.ready(base); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ready waits for the listener to answer GET /v1/health (outside the wire
// ledger).
func (s *httpSystem) ready(base string) error {
	resp, err := s.proto.coClient.Get(base + "/v1/health")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health probe: %s", resp.Status)
		}
	}
	return s.o.call("transport", err)
}

func (s *httpSystem) replay(p *pass) error {
	var cur *remote.Curator
	if p.tr != nil {
		cur = s.cur // read back stage timings around Finalize
	}
	var err error
	s.sent, err = sjReplay(s.in, s.proto, s.devs, s.o, p, cur)
	return err
}

func (s *httpSystem) outcome() (*outcome, error) {
	st, err := s.proto.co.Stats()
	if s.o.call("gateway", err) != nil {
		return nil, err
	}
	got := ledger{presence: st.PresenceEvents, reports: int64(st.Reports), rounds: st.Rounds}
	if err := checkLedger(s.sent, got); err != nil {
		return nil, err
	}
	rel := s.cur.Synthetic("sj-http")
	s.o.call("curator", nil)
	return &outcome{release: rel, space: s.cur.Domain().Space(), digest: digest(rel),
		reports: s.sent.reports, wire: st.Wire}, nil
}

// track counts open server connections, so close can wait until every
// connection goroutine, and with it the last reference to the curator, is
// gone: the next replay's heap baseline must not still hold this system.
func (s *httpSystem) track(_ net.Conn, state http.ConnState) {
	switch state {
	case http.StateNew:
		s.conns.Add(1)
	case http.StateClosed, http.StateHijacked:
		s.conns.Done()
	}
}

func (s *httpSystem) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.proto.closeIdle()
	s.conns.Wait()
	return err
}

// ledger is the zero-loss accounting of one replay: what the gateways sent,
// or what the curator counted.
type ledger struct {
	presence int64 // presence events
	reports  int64 // device reports
	rounds   int   // rounds that carried reports
}

// checkLedger fails unless the curator counted exactly what was sent.
func checkLedger(sent, got ledger) error {
	if sent != got {
		return fmt.Errorf("zero-loss ledger does not balance: sent %d presence events, %d reports in %d rounds; curator counted %d, %d in %d",
			sent.presence, sent.reports, sent.rounds, got.presence, got.reports, got.rounds)
	}
	return nil
}

// protocol is the per-timestamp collection protocol as the gateways and the
// coordinator drive it: over HTTP, or by direct Curator calls. span is the
// caller's span ID for the call (0 when tracing is off).
type protocol interface {
	presence(span int64, g int, users []int, t int) error
	plan(span int64, t int) error
	assignments(span int64, g int, users []int, t int) ([]remote.Assignment, error)
	report(span int64, g, t, d int, batch []remote.PackedBatchReport) error
	finalize(span int64, t, active int) error
}

// call is one timed call of a round.
type call struct {
	id         int64
	start, end time.Time
}

func (c *call) dur() time.Duration { return c.end.Sub(c.start) }

// collectCalls is one gateway's share of a round.
type collectCalls struct {
	presence, assignments, perturb, report call
}

// sjReplay drives the sharded stream through proto, one closed-loop round
// per timestamp: presence from every gateway, Plan, then per gateway the
// assignment poll, device perturbation and packed report upload, then
// Finalize. A round runs from its first presence call until Finalize
// returns. cur is non-nil on the traced pass, to read stage timings around
// Finalize.
func sjReplay(in *input, proto protocol, devs []*device, o *ops, p *pass, cur *remote.Curator) (ledger, error) {
	var sent ledger
	timings := func() pipeline.Timings {
		o.call("curator", nil)
		return cur.Timings()
	}
	var prev pipeline.Timings
	if cur != nil {
		prev = timings()
	}
	begin := func(c *call) {
		if p.tr != nil {
			c.id = p.tr.id()
		}
		c.start = time.Now()
	}
	gws := make([]collectCalls, in.gateways)
	reports := make([]int64, in.gateways)
	for t := 0; t < in.T; t++ {
		shards := in.shards[t]
		clear(gws)
		clear(reports)
		start := time.Now()
		err := parallel(in.gateways, func(g int) error {
			if len(shards[g].users) == 0 {
				return nil
			}
			c := &gws[g].presence
			begin(c)
			err := proto.presence(c.id, g, shards[g].users, t)
			c.end = time.Now()
			return err
		})
		presenceEnd := time.Now()
		if err != nil {
			return sent, fmt.Errorf("t=%d presence: %w", t, err)
		}
		var plan call
		begin(&plan)
		err = proto.plan(plan.id, t)
		plan.end = time.Now()
		if err != nil {
			return sent, fmt.Errorf("t=%d plan: %w", t, err)
		}
		err = parallel(in.gateways, func(g int) error {
			sh, gc := &shards[g], &gws[g]
			if len(sh.users) == 0 {
				return nil
			}
			begin(&gc.assignments)
			as, err := proto.assignments(gc.assignments.id, g, sh.users, t)
			gc.assignments.end = time.Now()
			if err != nil {
				return err
			}
			begin(&gc.perturb)
			batch, err := devs[g].perturb(t, in.domain, sh, as)
			gc.perturb.end = time.Now()
			if o.call("device", err) != nil || len(batch) == 0 {
				return err
			}
			begin(&gc.report)
			err = proto.report(gc.report.id, g, t, in.domain, batch)
			gc.report.end = time.Now()
			reports[g] = int64(len(batch))
			return err
		})
		collectEnd := time.Now()
		if err != nil {
			return sent, fmt.Errorf("t=%d collect: %w", t, err)
		}
		var before pipeline.Timings
		if cur != nil {
			before = timings()
		}
		var fin call
		begin(&fin)
		err = proto.finalize(fin.id, t, in.rounds[t].active)
		fin.end = time.Now()
		if err != nil {
			return sent, fmt.Errorf("t=%d finalize: %w", t, err)
		}
		p.round(fin.end.Sub(start), len(in.rounds[t].users))

		n := int64(0)
		for _, r := range reports {
			n += r
		}
		sent.presence += int64(len(in.rounds[t].users))
		sent.reports += n
		if n > 0 {
			sent.rounds++
		}
		if cur != nil {
			after := timings()
			if err := traceSJRound(p, t, start, presenceEnd, collectEnd, gws, plan, fin, prev, before, after); err != nil {
				return sent, err
			}
			prev = after
		}
	}
	return sent, nil
}

// traceSJRound records one sj-http round's spans and its critical-path
// breakdown. Within each parallel phase the critical path runs through the
// gateway that finished last. A gateway call splits into the curator's
// handler time (curator.*) and the rest of the client-observed time
// (transport.*: HTTP, wire encoding and decoding).
func traceSJRound(p *pass, t int, start, presenceEnd, collectEnd time.Time, gws []collectCalls,
	plan, fin call, prev, before, after pipeline.Timings) error {
	tr := p.tr
	roundID, presID, collID := tr.id(), tr.id(), tr.id()
	tr.add(roundID, 0, "round", t, start, fin.end)
	tr.add(presID, roundID, "phase.presence", t, start, presenceEnd)
	tr.add(collID, roundID, "phase.collect", t, plan.end, collectEnd)
	path := map[string]time.Duration{}
	detail := map[string]time.Duration{}
	var errs []error
	split := func(name string, c call, critical bool, parent int64) {
		tr.add(c.id, parent, "gateway."+name, t, c.start, c.end)
		if !critical {
			return
		}
		srv, err := tr.serverTime(c.id)
		errs = append(errs, err)
		path["curator."+name+"_ms"] += srv
		path["transport."+name+"_ms"] += c.dur() - srv
		detail["gateway."+name+"_ms"] += c.dur()
	}
	critPres, critColl := -1, -1
	for g := range gws {
		gc := &gws[g]
		if gc.presence.id != 0 && (critPres < 0 || gc.presence.end.After(gws[critPres].presence.end)) {
			critPres = g
		}
		if gc.assignments.id != 0 && (critColl < 0 || gc.lastEnd().After(gws[critColl].lastEnd())) {
			critColl = g
		}
	}
	for g := range gws {
		gc := &gws[g]
		if gc.presence.id != 0 {
			split("presence", gc.presence, g == critPres, presID)
		}
		if gc.assignments.id != 0 {
			split("assignments", gc.assignments, g == critColl, collID)
		}
		if gc.perturb.id != 0 {
			tr.add(gc.perturb.id, collID, "device.perturb", t, gc.perturb.start, gc.perturb.end)
			if g == critColl {
				path["device.perturb_ms"] += gc.perturb.dur()
			}
		}
		if gc.report.id != 0 {
			split("report", gc.report, g == critColl, collID)
		}
	}
	split("plan", plan, true, roundID)
	split("finalize", fin, true, roundID)
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("t=%d: %w", t, err)
	}
	inFinalize := pipeline.Sub(after, before)
	wholeRound := pipeline.Sub(after, prev)
	detail["curator.model_ms"] = wholeRound.ModelConstruction
	detail["curator.dmu_ms"] = wholeRound.DMU
	detail["curator.synthesis_ms"] = wholeRound.Synthesis
	detail["curator.finalize_rest_ms"] = path["curator.finalize_ms"] - inFinalize.ModelConstruction - inFinalize.DMU - inFinalize.Synthesis
	return p.breakdown(t, fin.end.Sub(start), path, detail)
}

// lastEnd is when the gateway's collect chain finished.
func (gc *collectCalls) lastEnd() time.Time {
	if gc.report.id != 0 {
		return gc.report.end
	}
	if gc.perturb.id != 0 {
		return gc.perturb.end
	}
	return gc.assignments.end
}

// parallel runs fn for every gateway on its own goroutine, waits for all of
// them and returns the first error.
func parallel(n int, fn func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// spanHeader carries the client span ID to the server-side span recorder.
const spanHeader = "X-Bench-Span"

// httpProtocol drives the curator over HTTP: one remote.Gateway (binary
// wire) per gateway goroutine and one remote.Coordinator, each on its own
// connection.
type httpProtocol struct {
	o        *ops
	gws      []*remote.Gateway
	gwTags   []*spanTag
	co       *remote.Coordinator
	coTag    *spanTag
	coClient *http.Client
	conns    []*http.Transport
}

func newHTTPProtocol(base string, n int, o *ops, traced bool) *httpProtocol {
	hp := &httpProtocol{o: o}
	client := func() (*http.Client, *spanTag) {
		t := &http.Transport{MaxIdleConnsPerHost: 2}
		hp.conns = append(hp.conns, t)
		if !traced {
			return &http.Client{Transport: t}, nil
		}
		tag := &spanTag{base: t}
		return &http.Client{Transport: tag}, tag
	}
	for i := 0; i < n; i++ {
		c, tag := client()
		gw := remote.NewGateway(base, c)
		gw.SetWire(remote.WireBinary)
		hp.gws = append(hp.gws, gw)
		hp.gwTags = append(hp.gwTags, tag)
	}
	hp.coClient, hp.coTag = client()
	hp.co = remote.NewCoordinator(base, hp.coClient)
	return hp
}

func (hp *httpProtocol) closeIdle() {
	for _, t := range hp.conns {
		t.CloseIdleConnections()
	}
}

func (hp *httpProtocol) presence(span int64, g int, users []int, t int) error {
	hp.gwTags[g].set(span)
	return hp.o.call("gateway", hp.gws[g].AnnouncePresence(users, t))
}

func (hp *httpProtocol) plan(span int64, t int) error {
	hp.coTag.set(span)
	return hp.o.call("gateway", hp.co.Plan(t))
}

func (hp *httpProtocol) assignments(span int64, g int, users []int, t int) ([]remote.Assignment, error) {
	hp.gwTags[g].set(span)
	as, err := hp.gws[g].Assignments(users, t)
	return as, hp.o.call("gateway", err)
}

func (hp *httpProtocol) report(span int64, g, t, d int, batch []remote.PackedBatchReport) error {
	hp.gwTags[g].set(span)
	return hp.o.call("gateway", hp.gws[g].ReportPacked(t, d, batch))
}

func (hp *httpProtocol) finalize(span int64, t, active int) error {
	hp.coTag.set(span)
	return hp.o.call("gateway", hp.co.Finalize(t, active))
}

// spanTag stamps the current client span ID on outgoing requests. Each
// gateway and the coordinator own one and issue one call at a time.
type spanTag struct {
	base http.RoundTripper
	id   atomic.Int64
}

func (s *spanTag) set(id int64) {
	if s != nil {
		s.id.Store(id)
	}
}

func (s *spanTag) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(s.id.Load(), 10))
	return s.base.RoundTrip(r)
}

// serverSpans wraps the curator's handler to time every request it serves
// on behalf of a tagged client call.
func serverSpans(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		if parent != 0 {
			tr.addServer(parent, "curator."+strings.TrimPrefix(r.URL.Path, "/v1/"), start, time.Now())
		}
	})
}

// directProtocol drives the same protocol through Curator methods, without
// HTTP: the reference replay sj-http's release must reproduce.
type directProtocol struct {
	cur *remote.Curator
	o   *ops
}

func (dp directProtocol) presence(_ int64, _ int, users []int, t int) error {
	return dp.o.call("curator", dp.cur.PresenceBatch(users, t))
}

func (dp directProtocol) plan(_ int64, t int) error { return dp.o.call("curator", dp.cur.Plan(t)) }

func (dp directProtocol) assignments(_ int64, _ int, users []int, t int) ([]remote.Assignment, error) {
	as, err := dp.cur.AssignmentsFor(users, t)
	return as, dp.o.call("curator", err)
}

func (dp directProtocol) report(_ int64, _, t, _ int, batch []remote.PackedBatchReport) error {
	return dp.o.call("curator", dp.cur.ReportPackedBatch(t, batch))
}

func (dp directProtocol) finalize(_ int64, t, active int) error {
	return dp.o.call("curator", dp.cur.Finalize(t, active))
}

// directDigest replays the input through Curator methods, with the seeds of
// a run's first replay, and returns the release digest.
func directDigest(in *input, cfg config, o *ops) (string, error) {
	g, err := retrasyn.NewGrid(cfg.shape.k, in.bounds)
	if err != nil {
		return "", err
	}
	cur, err := remote.NewCurator(curatorConfig(g, cfg.shape, systemSeed(cfg.seed, 0)))
	if o.call("curator", err) != nil {
		return "", err
	}
	sent, err := sjReplay(in, directProtocol{cur, o}, newDevices(in.gateways, deviceSeed(cfg.seed, 0)), o, &pass{}, nil)
	if err != nil {
		return "", err
	}
	rounds, reports := cur.Stats()
	if err := checkLedger(sent, ledger{presence: cur.PresenceEvents(), reports: int64(reports), rounds: rounds}); err != nil {
		return "", err
	}
	return digest(cur.Synthetic("sj-http")), nil
}
